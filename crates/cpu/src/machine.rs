//! The instruction-level executor.
//!
//! [`Machine`] runs one [`wasmperf_isa::Module`] to completion, maintaining
//! architectural state (registers, flags, memory, machine stack) and the
//! full set of performance counters. Execution is deterministic: the same
//! module and inputs always produce the same outputs *and* the same
//! counter values.
//!
//! Address-space layout:
//!
//! ```text
//! 0 .. module.memory_size            program linear memory (data + heap)
//! module.memory_size .. mem.size()   machine stack (grows downward)
//! ```
//!
//! Calls push a synthetic return token on the machine stack (so stack
//! traffic is realistic) while a shadow stack holds the actual return
//! targets; `ret` verifies `rsp` integrity against the shadow stack, which
//! catches backend prologue/epilogue bugs immediately.

use crate::cache::Cache;
use crate::counters::PerfCounters;
use crate::host::{HostEnv, HostOutcome};
use crate::mem::Memory;
use crate::predecode::{MOp, Predecoded};
use crate::predictor::BranchPredictor;
use crate::threaded::{Seg, TOp, Threaded, NO_SB};
use crate::timing::{absorb, fp_to_cycles, TimingModel};
use std::sync::Arc;
use wasmperf_isa::inst::FOperand;
use wasmperf_isa::size::encoded_len;
use wasmperf_isa::{
    AluOp, Cc, FAluOp, FPrec, FuncId, HeapBase, Inst, MemRef, Module, Operand, Reg, RoundMode,
    Sandbox, TrapKind, Width, Xmm,
};
use wasmperf_trace::{AddrSample, CycleProfile};

/// Default machine-stack size in bytes.
pub const DEFAULT_STACK_BYTES: u64 = 1 << 20;

/// Synthetic value pushed as a return address token.
const RET_TOKEN: u64 = 0x5EC0_DE00_0000_0000;

/// Flags register subset.
#[derive(Debug, Clone, Copy, Default)]
struct Flags {
    zf: bool,
    sf: bool,
    of: bool,
    cf: bool,
    pf: bool,
}

#[derive(Debug)]
struct Frame {
    func: u32,
    ret_pc: u32,
    rsp_at_call: u64,
}

/// Counter snapshot taken before an instruction dispatches, so the delta
/// after dispatch can be attributed to that instruction's address.
#[derive(Clone, Copy)]
struct ProfSnap {
    cycle_fp: u64,
    dcache_misses: u64,
    icache_misses: u64,
    mispredicts: u64,
    host_cycles: u64,
}

/// An execution error: a trap plus source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// The trap reason.
    pub kind: TrapKind,
    /// Function the trap occurred in.
    pub func: String,
    /// Instruction index within the function.
    pub pc: usize,
    /// Additional context.
    pub detail: String,
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "trap: {} at {}+{}", self.kind, self.func, self.pc)?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

impl std::error::Error for ExecError {}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Value of `rax` when the entry function returned.
    pub ret: u64,
    /// Exit code if the program terminated via a host `exit`.
    pub exit_code: Option<i32>,
    /// Performance counters for the run.
    pub counters: PerfCounters,
}

/// Which interpreter loop [`Machine::run`] drives. Both loops produce
/// byte-identical observables (results, traps, counters); the threaded
/// superblock engine is the fast one and the default. Profiled runs
/// always take the legacy loop so per-instruction attribution stays exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Direct-threaded function-pointer dispatch over superblocks built
    /// from the [`Predecoded`] micro-op stream, with batched
    /// fuel/cycle/fetch accounting (the default).
    Threaded,
    /// The original per-instruction interpreter, used as the differential
    /// reference and by the profiler.
    Legacy,
}

/// The executing machine.
pub struct Machine<'m, H: HostEnv> {
    module: &'m Module,
    /// Program memory image (linear memory + machine stack).
    pub mem: Memory,
    regs: [u64; 16],
    xmm: [u64; 16],
    flags: Flags,
    counters: PerfCounters,
    icache: Cache,
    dcache: Cache,
    predictor: BranchPredictor,
    timing: TimingModel,
    cycle_fp: u64,
    /// Remaining issue work that hides under an outstanding D-cache miss.
    stall_credit_fp: u64,
    call_stack: Vec<Frame>,
    host: H,
    stack_floor: u64,
    /// Maximum shadow-stack depth before a stack-overflow trap.
    pub max_call_depth: usize,
    /// Per-address cycle attribution; `None` (the default) records nothing
    /// and keeps the hot loop free of bookkeeping.
    profile: Option<Box<CycleProfile>>,
    /// The module lowered once into flat micro-op blocks.
    pre: Arc<Predecoded>,
    /// The superblock program the threaded engine dispatches over, built
    /// lazily from `pre` on the first threaded run.
    threaded: Option<Arc<Threaded>>,
    /// Per-function, per-op handler tables for threaded dispatch,
    /// index-aligned with [`Threaded::funcs`] / [`FuncThreaded::tops`].
    ///
    /// [`FuncThreaded::tops`]: crate::threaded::FuncThreaded
    thandlers: Option<Arc<Vec<Vec<Handler<H>>>>>,
    /// Which interpreter loop [`Machine::run`] uses.
    exec_mode: ExecMode,
    /// Cached copy of `module.sandbox`: the guard-page contract for heap
    /// accesses, or `None` for native modules (no classification, no
    /// checks).
    sandbox: Option<Sandbox>,
    /// Precomputed fp-cycle cost of the two protection-domain switches
    /// (enter + leave) per host-call boundary crossing; 0 unless the
    /// module's sandbox models PKU-style switching.
    pku_fp: u64,
}

impl<'m, H: HostEnv> Machine<'m, H> {
    /// Creates a machine for `module` with a default-size machine stack.
    ///
    /// # Panics
    ///
    /// Panics if the module's instruction addresses have not been assigned
    /// (backends must call [`Module::assign_addresses`]).
    pub fn new(module: &'m Module, host: H) -> Machine<'m, H> {
        Machine::with_config(module, host, DEFAULT_STACK_BYTES, TimingModel::default())
    }

    /// Creates a machine with an explicit stack size and timing model.
    pub fn with_config(
        module: &'m Module,
        host: H,
        stack_bytes: u64,
        timing: TimingModel,
    ) -> Machine<'m, H> {
        for f in &module.funcs {
            assert_eq!(
                f.inst_addrs.len(),
                f.insts.len(),
                "module must have addresses assigned (fn {})",
                f.name
            );
        }
        let total = module.memory_size + stack_bytes;
        let mut mem = Memory::new(total);
        for (addr, data) in &module.data {
            mem.write_bytes(*addr, data)
                .expect("data segment in bounds");
        }
        let mut regs = [0u64; 16];
        regs[Reg::Rsp.index()] = total - 16;
        let icache = Cache::l1();
        let pre = Arc::new(Predecoded::new(module, &timing, icache.line_bytes()));
        Machine {
            module,
            mem,
            regs,
            xmm: [0; 16],
            flags: Flags::default(),
            counters: PerfCounters::default(),
            icache,
            dcache: Cache::l1(),
            predictor: BranchPredictor::default(),
            timing,
            cycle_fp: 0,
            stall_credit_fp: 0,
            call_stack: Vec::new(),
            host,
            stack_floor: module.memory_size,
            max_call_depth: 100_000,
            profile: None,
            pre,
            threaded: None,
            thandlers: None,
            exec_mode: ExecMode::Threaded,
            sandbox: module.sandbox,
            pku_fp: module
                .sandbox
                .map_or(0, |sb| 2 * sb.switch_cycles as u64 * 64),
        }
    }

    /// Selects which interpreter loop [`Machine::run`] uses. Profiled runs
    /// always take the legacy path regardless of this setting.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// Turns on per-address cycle attribution for subsequent [`Machine::run`]
    /// calls. Profiling observes the counters the machine updates anyway;
    /// it never changes timing, counter values, or program results.
    pub fn enable_profile(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::new(CycleProfile::new()));
        }
    }

    /// Takes the accumulated profile, disabling further attribution.
    pub fn take_profile(&mut self) -> Option<CycleProfile> {
        self.profile.take().map(|p| *p)
    }

    #[inline]
    fn prof_snap(&self) -> ProfSnap {
        ProfSnap {
            cycle_fp: self.cycle_fp,
            dcache_misses: self.dcache.misses(),
            icache_misses: self.icache.misses(),
            mispredicts: self.predictor.mispredicts(),
            host_cycles: self.counters.host_cycles,
        }
    }

    #[inline]
    fn prof_record(&mut self, addr: u64, snap: ProfSnap) {
        if let Some(p) = self.profile.as_mut() {
            p.record(
                addr,
                AddrSample {
                    instructions: 1,
                    cycles_fp: self.cycle_fp - snap.cycle_fp,
                    dcache_misses: self.dcache.misses() - snap.dcache_misses,
                    icache_misses: self.icache.misses() - snap.icache_misses,
                    mispredicts: self.predictor.mispredicts() - snap.mispredicts,
                    host_cycles: self.counters.host_cycles - snap.host_cycles,
                },
            );
        }
    }

    /// Current counter values (cycles synced).
    pub fn counters(&self) -> PerfCounters {
        let mut c = self.counters;
        c.cycles = fp_to_cycles(self.cycle_fp);
        c.icache_accesses = self.icache.accesses();
        c.icache_misses = self.icache.misses();
        c.dcache_accesses = self.dcache.accesses();
        c.dcache_misses = self.dcache.misses();
        c.branch_mispredicts = self.predictor.mispredicts();
        c
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a general-purpose register (full 64 bits).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Shared access to the host environment.
    pub fn host(&self) -> &H {
        &self.host
    }

    /// Mutable access to the host environment.
    pub fn host_mut(&mut self) -> &mut H {
        &mut self.host
    }

    /// Consumes the machine, returning the host.
    pub fn into_host(self) -> H {
        self.host
    }

    fn err(&self, kind: TrapKind, func: u32, pc: usize, detail: impl Into<String>) -> ExecError {
        ExecError {
            kind,
            func: self.module.funcs[func as usize].name.clone(),
            pc,
            detail: detail.into(),
        }
    }

    #[inline]
    fn ea(&self, m: &MemRef) -> u64 {
        let mut a = m.disp as u64;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.regs[b.index()]);
        }
        if let Some((i, s)) = m.index {
            a = a.wrapping_add(self.regs[i.index()].wrapping_mul(s as u64));
        }
        a
    }

    /// Effective address plus the implicit guard-page check: in a
    /// sandboxed module, a heap access of `width` bytes at `a` faults iff
    /// `a + width > heap_limit`, exactly the predicate the explicit
    /// bounds-check ablation compiles in. The check is free — guard pages
    /// cost nothing on the in-bounds path — so counters and cycles are
    /// untouched. Non-heap accesses (machine stack, spill slots, table
    /// image) are exempt, as is everything in unsandboxed modules.
    #[inline]
    fn ea_checked(&self, m: &MemRef, width: Width) -> Result<u64, TrapKind> {
        let a = self.ea(m);
        if let Some(sb) = &self.sandbox {
            let is_heap = match sb.heap_base {
                HeapBase::Pinned(r) => m.base == Some(r),
                HeapBase::Masked => {
                    matches!(m.base, Some(b) if b != Reg::Rsp && b != Reg::Rbp)
                }
            };
            if is_heap
                && a.checked_add(width.bytes())
                    .is_none_or(|end| end > sb.heap_limit)
            {
                return Err(TrapKind::MemoryOutOfBounds);
            }
        }
        Ok(a)
    }

    #[inline]
    fn dcache_miss(&mut self) {
        let penalty = self.timing.dcache_miss_penalty as u64;
        self.cycle_fp += penalty;
        // A window of subsequent issue executes under the miss shadow.
        self.stall_credit_fp += penalty * self.timing.dcache_overlap_percent as u64 / 100;
    }

    /// D-cache probe for an access of `width` bytes at `addr`. An access
    /// that straddles a line boundary touches (and may miss) both lines,
    /// mirroring the I-cache fetch path.
    #[inline]
    fn dprobe(&mut self, addr: u64, width: Width) {
        if !self.dcache.access(addr) {
            self.dcache_miss();
        }
        let last = addr.wrapping_add(width.bytes() - 1);
        if self.dcache.line_of(last) != self.dcache.line_of(addr) && !self.dcache.access(last) {
            self.dcache_miss();
        }
    }

    #[inline]
    fn dread(&mut self, addr: u64, width: Width) -> Result<u64, TrapKind> {
        self.counters.loads_retired += 1;
        self.dprobe(addr, width);
        self.mem.read(addr, width)
    }

    #[inline]
    fn dwrite(&mut self, addr: u64, v: u64, width: Width) -> Result<(), TrapKind> {
        self.counters.stores_retired += 1;
        self.dprobe(addr, width);
        self.mem.write(addr, v, width)
    }

    #[inline]
    fn read_op(&mut self, op: &Operand, width: Width) -> Result<u64, TrapKind> {
        match op {
            Operand::Reg(r) => Ok(self.regs[r.index()] & width.mask()),
            Operand::Imm(v) => Ok((*v as u64) & width.mask()),
            Operand::Mem(m) => {
                let a = self.ea_checked(m, width)?;
                self.dread(a, width)
            }
        }
    }

    /// Writes an integer destination with x86 width semantics: 32-bit
    /// writes zero-extend, 8/16-bit writes merge into the low bits.
    #[inline]
    fn write_reg_w(&mut self, r: Reg, v: u64, width: Width) {
        let slot = &mut self.regs[r.index()];
        match width {
            Width::W64 => *slot = v,
            Width::W32 => *slot = v & 0xffff_ffff,
            Width::W16 => *slot = (*slot & !0xffff) | (v & 0xffff),
            Width::W8 => *slot = (*slot & !0xff) | (v & 0xff),
        }
    }

    #[inline]
    fn write_op(&mut self, op: &Operand, v: u64, width: Width) -> Result<(), TrapKind> {
        match op {
            Operand::Reg(r) => {
                self.write_reg_w(*r, v, width);
                Ok(())
            }
            Operand::Mem(m) => {
                let a = self.ea_checked(m, width)?;
                self.dwrite(a, v, width)
            }
            Operand::Imm(_) => unreachable!("immediate destination"),
        }
    }

    fn set_flags_logic(&mut self, res: u64, width: Width) {
        let r = res & width.mask();
        self.flags = Flags {
            zf: r == 0,
            sf: r & width.sign_bit() != 0,
            of: false,
            cf: false,
            pf: false,
        };
    }

    fn set_flags_add(&mut self, lhs: u64, rhs: u64, width: Width) -> u64 {
        let mask = width.mask();
        let (l, r) = (lhs & mask, rhs & mask);
        let res = l.wrapping_add(r) & mask;
        let sign = width.sign_bit();
        self.flags = Flags {
            zf: res == 0,
            sf: res & sign != 0,
            cf: res < l,
            of: (!(l ^ r) & (l ^ res)) & sign != 0,
            pf: false,
        };
        res
    }

    fn set_flags_sub(&mut self, lhs: u64, rhs: u64, width: Width) -> u64 {
        let mask = width.mask();
        let (l, r) = (lhs & mask, rhs & mask);
        let res = l.wrapping_sub(r) & mask;
        let sign = width.sign_bit();
        self.flags = Flags {
            zf: res == 0,
            sf: res & sign != 0,
            cf: l < r,
            of: ((l ^ r) & (l ^ res)) & sign != 0,
            pf: false,
        };
        res
    }

    fn cond(&self, cc: Cc) -> bool {
        let f = self.flags;
        match cc {
            Cc::E => f.zf,
            Cc::Ne => !f.zf,
            Cc::L => f.sf != f.of,
            Cc::Le => f.zf || f.sf != f.of,
            Cc::G => !f.zf && f.sf == f.of,
            Cc::Ge => f.sf == f.of,
            Cc::B => f.cf,
            Cc::Be => f.cf || f.zf,
            Cc::A => !f.cf && !f.zf,
            Cc::Ae => !f.cf,
            Cc::O => f.of,
            Cc::No => !f.of,
            Cc::S => f.sf,
            Cc::Ns => !f.sf,
            Cc::P => f.pf,
            Cc::Np => !f.pf,
        }
    }

    fn read_fop(&mut self, op: &FOperand, prec: FPrec) -> Result<u64, TrapKind> {
        match op {
            FOperand::Xmm(x) => Ok(self.xmm[x.index()]),
            FOperand::Mem(m) => {
                let w = match prec {
                    FPrec::F32 => Width::W32,
                    FPrec::F64 => Width::W64,
                };
                let a = self.ea_checked(m, w)?;
                self.dread(a, w)
            }
        }
    }

    #[inline]
    fn push_val_raw(&mut self, v: u64) -> StepResult {
        let rsp = self.regs[Reg::Rsp.index()].wrapping_sub(8);
        if rsp < self.stack_floor {
            return Err((TrapKind::StackOverflow, "machine stack exhausted"));
        }
        self.regs[Reg::Rsp.index()] = rsp;
        self.dwrite(rsp, v, Width::W64).map_err(|k| (k, "push"))
    }

    fn push_val(&mut self, v: u64, func: u32, pc: usize) -> Result<(), ExecError> {
        self.push_val_raw(v)
            .map_err(|(k, d)| self.err(k, func, pc, d))
    }

    /// Runs the module from `entry` with System V register arguments.
    ///
    /// `fuel` bounds the number of retired instructions; exceeding it
    /// returns a [`TrapKind::OutOfFuel`] error rather than hanging.
    ///
    /// Dispatches to the threaded superblock engine unless profiling is
    /// enabled (always legacy, for exact attribution) or
    /// [`Machine::set_exec_mode`] selected [`ExecMode::Legacy`]; both loops
    /// produce identical observables.
    pub fn run(&mut self, entry: FuncId, args: &[u64], fuel: u64) -> Result<RunOutcome, ExecError> {
        assert!(args.len() <= 6, "at most 6 register arguments");
        for (i, &a) in args.iter().enumerate() {
            self.regs[Reg::SYSV_ARGS[i].index()] = a;
        }
        if self.profile.is_some() || self.exec_mode == ExecMode::Legacy {
            self.run_legacy(entry, fuel)
        } else {
            self.run_threaded(entry, fuel)
        }
    }

    /// The legacy per-instruction interpreter: re-derives lengths, classes,
    /// and costs from the [`Module`] each step and carries the profiler
    /// hooks, so `wasmperf-trace` attribution is exact. Kept as the
    /// reference the threaded engine is differentially tested against.
    fn run_legacy(&mut self, entry: FuncId, fuel: u64) -> Result<RunOutcome, ExecError> {
        let mut func = entry.0;
        let mut pc: usize = 0;
        let mut remaining = fuel;

        loop {
            let f = &self.module.funcs[func as usize];
            let Some(inst) = f.insts.get(pc) else {
                return Err(self.err(TrapKind::Abort, func, pc, "fell off end of function"));
            };
            let addr = f.inst_addrs[pc];
            let len = encoded_len(inst);
            let snap = if self.profile.is_some() {
                Some(self.prof_snap())
            } else {
                None
            };

            if remaining == 0 {
                return Err(self.err(TrapKind::OutOfFuel, func, pc, ""));
            }
            remaining -= 1;

            // Instruction fetch: I-cache access, possibly straddling lines.
            if !self.icache.access(addr) {
                self.cycle_fp += self.timing.icache_miss_penalty as u64;
            }
            let last = addr + len as u64 - 1;
            if self.icache.line_of(last) != self.icache.line_of(addr) && !self.icache.access(last) {
                self.cycle_fp += self.timing.icache_miss_penalty as u64;
            }

            self.counters.retire(1);
            let class = inst.class();
            let cost = self.timing.issue_cost(class) as u64;
            // Issue cost is absorbed by any outstanding miss shadow.
            self.cycle_fp += absorb(&mut self.stall_credit_fp, cost);

            // `next` is where control goes unless the instruction redirects.
            let mut next = pc + 1;
            let mut next_func = func;

            macro_rules! trap {
                ($k:expr, $d:expr) => {
                    return Err(self.err($k, func, pc, $d))
                };
            }
            macro_rules! step {
                ($r:expr) => {
                    if let Err((k, d)) = $r {
                        trap!(k, d)
                    }
                };
            }

            match inst {
                Inst::Mov { dst, src, width } => step!(self.exec_mov(dst, src, *width)),
                Inst::Movzx { dst, src, from } => step!(self.exec_movzx(*dst, src, *from)),
                Inst::Movsx { dst, src, from, to } => {
                    step!(self.exec_movsx(*dst, src, *from, *to))
                }
                Inst::Lea { dst, mem, width } => self.exec_lea(*dst, mem, *width),
                Inst::Alu {
                    op,
                    dst,
                    src,
                    width,
                } => step!(self.exec_alu(*op, dst, src, *width)),
                Inst::Neg { dst, width } => step!(self.exec_neg(dst, *width)),
                Inst::Not { dst, width } => step!(self.exec_not(dst, *width)),
                Inst::Imul { dst, src, width } => step!(self.exec_imul(*dst, src, *width)),
                Inst::Imul3 {
                    dst,
                    src,
                    imm,
                    width,
                } => step!(self.exec_imul3(*dst, src, *imm, *width)),
                Inst::Cqo { width } => self.exec_cqo(*width),
                Inst::Div { src, signed, width } => step!(self.exec_div(src, *signed, *width)),
                Inst::Cmp { lhs, rhs, width } => step!(self.exec_cmp(lhs, rhs, *width)),
                Inst::Test { lhs, rhs, width } => step!(self.exec_test(lhs, rhs, *width)),
                Inst::Cmov {
                    cc,
                    dst,
                    src,
                    width,
                } => step!(self.exec_cmov(*cc, *dst, src, *width)),
                Inst::Setcc { cc, dst } => self.exec_setcc(*cc, *dst),
                Inst::Lzcnt { dst, src, width } => step!(self.exec_lzcnt(*dst, src, *width)),
                Inst::Tzcnt { dst, src, width } => step!(self.exec_tzcnt(*dst, src, *width)),
                Inst::Popcnt { dst, src, width } => step!(self.exec_popcnt(*dst, src, *width)),
                Inst::Jmp { target } => {
                    self.counters.branches_retired += 1;
                    next = f.resolve(*target);
                }
                Inst::Jcc { cc, target } => {
                    self.counters.branches_retired += 1;
                    self.counters.cond_branches_retired += 1;
                    let taken = self.cond(*cc);
                    if self.predictor.predict_and_update(addr, taken) {
                        self.cycle_fp += self.timing.mispredict_penalty as u64;
                    }
                    if taken {
                        next = f.resolve(*target);
                    }
                }
                Inst::Call { target } => {
                    self.counters.branches_retired += 1;
                    if self.call_stack.len() >= self.max_call_depth {
                        trap!(TrapKind::StackOverflow, "call depth");
                    }
                    if target.0 as usize >= self.module.funcs.len() {
                        trap!(TrapKind::Abort, "call to unknown function");
                    }
                    self.push_val(RET_TOKEN | next as u64, func, pc)?;
                    self.call_stack.push(Frame {
                        func,
                        ret_pc: next as u32,
                        rsp_at_call: self.regs[Reg::Rsp.index()],
                    });
                    next_func = target.0;
                    next = 0;
                }
                Inst::CallIndirect { target } => {
                    self.counters.branches_retired += 1;
                    let v = match self.read_op(target, Width::W64) {
                        Ok(v) => v,
                        Err(k) => trap!(k, "call-indirect operand"),
                    };
                    if v as usize >= self.module.funcs.len() {
                        trap!(
                            TrapKind::IndirectCallOutOfBounds,
                            format!("bad function id {v:#x}")
                        );
                    }
                    if self.call_stack.len() >= self.max_call_depth {
                        trap!(TrapKind::StackOverflow, "call depth");
                    }
                    self.push_val(RET_TOKEN | next as u64, func, pc)?;
                    self.call_stack.push(Frame {
                        func,
                        ret_pc: next as u32,
                        rsp_at_call: self.regs[Reg::Rsp.index()],
                    });
                    next_func = v as u32;
                    next = 0;
                }
                Inst::CallHost { id } => {
                    self.counters.branches_retired += 1;
                    self.counters.host_calls += 1;
                    // PKU sandbox: WRPKRU on entry and exit of the host
                    // domain; serializing, so nothing hides under it.
                    self.cycle_fp += self.pku_fp;
                    let args = [
                        self.regs[Reg::Rdi.index()],
                        self.regs[Reg::Rsi.index()],
                        self.regs[Reg::Rdx.index()],
                        self.regs[Reg::Rcx.index()],
                        self.regs[Reg::R8.index()],
                        self.regs[Reg::R9.index()],
                    ];
                    match self.host.call(*id, &args, &mut self.mem) {
                        Ok(HostOutcome::Ret {
                            value,
                            kernel_cycles,
                        }) => {
                            self.regs[Reg::Rax.index()] = value;
                            self.counters.host_cycles += kernel_cycles;
                        }
                        Ok(HostOutcome::Exit {
                            code,
                            kernel_cycles,
                        }) => {
                            self.counters.host_cycles += kernel_cycles;
                            if let Some(s) = snap {
                                self.prof_record(addr, s);
                            }
                            return Ok(RunOutcome {
                                ret: self.regs[Reg::Rax.index()],
                                exit_code: Some(code),
                                counters: self.counters(),
                            });
                        }
                        Err(k) => trap!(k, format!("host call {id}")),
                    }
                }
                Inst::Push { src } => {
                    let v = match self.read_op(src, Width::W64) {
                        Ok(v) => v,
                        Err(k) => trap!(k, "push src"),
                    };
                    self.push_val(v, func, pc)?;
                }
                Inst::Pop { dst } => step!(self.exec_pop(*dst)),
                Inst::Ret => {
                    self.counters.branches_retired += 1;
                    let rsp = self.regs[Reg::Rsp.index()];
                    if let Err(k) = self.dread(rsp, Width::W64) {
                        trap!(k, "ret pop");
                    }
                    self.regs[Reg::Rsp.index()] = rsp + 8;
                    match self.call_stack.pop() {
                        Some(frame) => {
                            if frame.rsp_at_call != rsp {
                                trap!(
                                    TrapKind::Abort,
                                    format!(
                                        "rsp mismatch on ret: {:#x} != {:#x}",
                                        rsp, frame.rsp_at_call
                                    )
                                );
                            }
                            next_func = frame.func;
                            next = frame.ret_pc as usize;
                        }
                        None => {
                            if let Some(s) = snap {
                                self.prof_record(addr, s);
                            }
                            return Ok(RunOutcome {
                                ret: self.regs[Reg::Rax.index()],
                                exit_code: None,
                                counters: self.counters(),
                            });
                        }
                    }
                }
                Inst::MovF { dst, src, prec } => step!(self.exec_movf(dst, src, *prec)),
                Inst::AluF { op, dst, src, prec } => step!(self.exec_aluf(*op, *dst, src, *prec)),
                Inst::RoundF {
                    dst,
                    src,
                    prec,
                    mode,
                } => step!(self.exec_roundf(*dst, src, *prec, *mode)),
                Inst::AbsF { dst, src, prec } => step!(self.exec_absf(*dst, src, *prec)),
                Inst::SqrtF { dst, src, prec } => step!(self.exec_sqrtf(*dst, src, *prec)),
                Inst::Ucomis { lhs, rhs, prec } => step!(self.exec_ucomis(*lhs, rhs, *prec)),
                Inst::CvtIntToF {
                    dst,
                    src,
                    width,
                    prec,
                    unsigned,
                } => step!(self.exec_cvt_int_to_f(*dst, src, *width, *prec, *unsigned)),
                Inst::CvtFToInt {
                    dst,
                    src,
                    width,
                    prec,
                    unsigned,
                } => step!(self.exec_cvt_f_to_int(*dst, src, *width, *prec, *unsigned)),
                Inst::CvtFToF { dst, src, from } => step!(self.exec_cvt_f_to_f(*dst, src, *from)),
                Inst::MovGprToXmm { dst, src, width } => {
                    self.exec_mov_gpr_to_xmm(*dst, *src, *width)
                }
                Inst::MovXmmToGpr { dst, src, width } => {
                    self.exec_mov_xmm_to_gpr(*dst, *src, *width)
                }
                Inst::Trap { kind } => trap!(*kind, "explicit trap"),
                Inst::Nop => {}
            }

            if let Some(s) = snap {
                self.prof_record(addr, s);
            }
            func = next_func;
            pc = next;
        }
    }

    /// Builds (once) the superblock program and the per-op handler tables
    /// the threaded engine dispatches over.
    fn ensure_threaded(&mut self) {
        if self.threaded.is_some() {
            return;
        }
        let th = Arc::new(Threaded::new(&self.pre, self.icache.line_bytes()));
        let tables: Vec<Vec<Handler<H>>> = th
            .funcs
            .iter()
            .map(|tf| tf.tops.iter().map(handler_for::<H>).collect())
            .collect();
        self.thandlers = Some(Arc::new(tables));
        self.threaded = Some(th);
    }

    /// The direct-threaded superblock engine ([`ExecMode::Threaded`]):
    /// dispatches each op through a pre-selected function pointer instead
    /// of a `match`, charges fuel per *superblock* (merged block chains,
    /// see [`crate::threaded`]) with exact rollback of the unexecuted tail
    /// at side exits, and applies the cycle and I-cache fetch accounting of
    /// pure register-only runs in one batched step. Every batching rule has
    /// a bit-exactness argument ([`Seg::Pure`], [`absorb`],
    /// [`Cache::record_hits`]); the differential tests hold this loop
    /// byte-identical to [`Machine::run_legacy`].
    fn run_threaded(&mut self, entry: FuncId, fuel: u64) -> Result<RunOutcome, ExecError> {
        self.ensure_threaded();
        let th = Arc::clone(self.threaded.as_ref().expect("ensure_threaded ran"));
        let tables = Arc::clone(self.thandlers.as_ref().expect("ensure_threaded ran"));
        let icache_penalty = self.timing.icache_miss_penalty as u64;
        let mut func = entry.0;
        let mut remaining = fuel;

        // Resolves a control-transfer destination (function entry or
        // return site) to its superblock, with the legacy loop's exact
        // "fell off end" abort for out-of-range targets.
        macro_rules! enter {
            ($f:expr, $pc:expr) => {{
                let dst = &th.funcs[$f as usize];
                if $pc as usize >= dst.n as usize {
                    return Err(self.err(
                        TrapKind::Abort,
                        $f,
                        $pc as usize,
                        "fell off end of function",
                    ));
                }
                let sb = dst.entry[$pc as usize];
                debug_assert_ne!(sb, NO_SB, "control must enter superblocks at their head");
                sb
            }};
        }

        let mut sb_id = enter!(func, 0u32);
        'sb: loop {
            let tf = &th.funcs[func as usize];
            let hs = &tables[func as usize];
            let sb = &tf.sbs[sb_id as usize];
            // The common case charges the whole superblock's fuel on entry;
            // runs with less fuel left than the superblock is long fall
            // back to per-op checks so the out-of-fuel pc stays exact.
            let batched = remaining >= sb.len as u64;

            // One op with exact per-instruction accounting, plus the
            // control-flow outcome handling shared by both fuel paths.
            macro_rules! op {
                ($i:expr, $batched:expr) => {{
                    let t = &tf.tops[$i];
                    if !self.icache.access(t.addr) {
                        self.cycle_fp += icache_penalty;
                    }
                    if t.straddles && !self.icache.access(t.last_byte) {
                        self.cycle_fp += icache_penalty;
                    }
                    self.counters.retire(1);
                    self.cycle_fp += absorb(&mut self.stall_credit_fp, t.cost as u64);
                    match (hs[$i])(self, t) {
                        Ok(Flow::Next) => {}
                        Ok(Flow::Jump {
                            sb: dst,
                            orig_target,
                        }) => {
                            if $batched {
                                // Side exit: roll back the unexecuted tail
                                // so fuel consumed equals instructions
                                // retired at every superblock entry — the
                                // out-of-fuel pc stays exact across
                                // superblock seams.
                                remaining += t.sb_tail as u64;
                            }
                            if dst == NO_SB {
                                return Err(self.err(
                                    TrapKind::Abort,
                                    func,
                                    orig_target as usize,
                                    "fell off end of function",
                                ));
                            }
                            sb_id = dst;
                            continue 'sb;
                        }
                        Ok(Flow::Enter { func: f }) => {
                            func = f;
                            sb_id = enter!(f, 0u32);
                            continue 'sb;
                        }
                        Ok(Flow::RetTo { func: f, ret_pc }) => {
                            func = f;
                            sb_id = enter!(f, ret_pc);
                            continue 'sb;
                        }
                        Ok(Flow::Finish { exit_code }) => {
                            return Ok(RunOutcome {
                                ret: self.regs[Reg::Rax.index()],
                                exit_code,
                                counters: self.counters(),
                            });
                        }
                        Err((k, d)) => {
                            return Err(self.err(k, func, t.orig_pc as usize, d));
                        }
                    }
                }};
            }

            if batched {
                remaining -= sb.len as u64;
                for seg in &tf.segs[sb.seg_lo as usize..sb.seg_hi as usize] {
                    match *seg {
                        Seg::Pure {
                            lo,
                            hi,
                            cost_fp,
                            fetches,
                            probe_lo,
                            probe_hi,
                        } => {
                            // Batched fetch: probe only at line transitions,
                            // count the statically-deduplicated rest.
                            for &a in &tf.probes[probe_lo as usize..probe_hi as usize] {
                                if !self.icache.access(a) {
                                    self.cycle_fp += icache_penalty;
                                }
                            }
                            self.icache
                                .record_hits(fetches - (probe_hi - probe_lo) as u64);
                            self.counters.retire((hi - lo) as u64);
                            self.cycle_fp += absorb(&mut self.stall_credit_fp, cost_fp);
                            let run = lo as usize..hi as usize;
                            for (h, t) in hs[run.clone()].iter().zip(&tf.tops[run]) {
                                if let Err((k, d)) = h(self, t) {
                                    debug_assert!(false, "pure op trapped: {d}");
                                    return Err(self.err(k, func, t.orig_pc as usize, d));
                                }
                            }
                        }
                        Seg::Complex { idx } => op!(idx as usize, true),
                    }
                }
            } else {
                // Indexed on purpose: `op!` needs the op index for both the
                // handler table and the trap-location lookup.
                #[allow(clippy::needless_range_loop)]
                for i in sb.op_lo as usize..sb.op_hi as usize {
                    if remaining == 0 {
                        return Err(self.err(
                            TrapKind::OutOfFuel,
                            func,
                            tf.tops[i].orig_pc as usize,
                            "",
                        ));
                    }
                    remaining -= 1;
                    op!(i, false);
                }
            }
            match sb.fallthrough {
                NO_SB => {
                    return Err(self.err(
                        TrapKind::Abort,
                        func,
                        tf.n as usize,
                        "fell off end of function",
                    ));
                }
                next => sb_id = next,
            }
        }
    }

    #[inline]
    fn exec_mov(&mut self, dst: &Operand, src: &Operand, width: Width) -> StepResult {
        let v = self.read_op(src, width).map_err(|k| (k, "mov src"))?;
        self.write_op(dst, v, width).map_err(|k| (k, "mov dst"))
    }

    #[inline]
    fn exec_movzx(&mut self, dst: Reg, src: &Operand, from: Width) -> StepResult {
        let v = self.read_op(src, from).map_err(|k| (k, "movzx"))?;
        self.regs[dst.index()] = v;
        Ok(())
    }

    #[inline]
    fn exec_movsx(&mut self, dst: Reg, src: &Operand, from: Width, to: Width) -> StepResult {
        let v = self.read_op(src, from).map_err(|k| (k, "movsx"))?;
        let bits = from.bytes() * 8;
        let sext = ((v << (64 - bits)) as i64 >> (64 - bits)) as u64;
        self.write_reg_w(dst, sext & to.mask(), to);
        if to == Width::W64 {
            self.regs[dst.index()] = sext;
        }
        Ok(())
    }

    #[inline]
    fn exec_lea(&mut self, dst: Reg, mem: &MemRef, width: Width) {
        let a = self.ea(mem);
        self.write_reg_w(dst, a & width.mask(), width);
    }

    #[inline]
    fn exec_alu(&mut self, op: AluOp, dst: &Operand, src: &Operand, width: Width) -> StepResult {
        // A read-modify-write memory destination computes the effective
        // address once and reuses it for both the load and the store.
        let mem_ea = match dst {
            Operand::Mem(m) => Some(self.ea_checked(m, width).map_err(|k| (k, "alu dst read"))?),
            _ => None,
        };
        let l = match mem_ea {
            Some(a) => self.dread(a, width),
            None => self.read_op(dst, width),
        }
        .map_err(|k| (k, "alu dst read"))?;
        let r = self.read_op(src, width).map_err(|k| (k, "alu src"))?;
        let res = match op {
            AluOp::Add => self.set_flags_add(l, r, width),
            AluOp::Sub => self.set_flags_sub(l, r, width),
            AluOp::And => {
                let v = l & r;
                self.set_flags_logic(v, width);
                v & width.mask()
            }
            AluOp::Or => {
                let v = l | r;
                self.set_flags_logic(v, width);
                v & width.mask()
            }
            AluOp::Xor => {
                let v = l ^ r;
                self.set_flags_logic(v, width);
                v & width.mask()
            }
            AluOp::Shl => {
                let c = r & (width.bytes() * 8 - 1);
                let v = (l << c) & width.mask();
                self.set_flags_logic(v, width);
                v
            }
            AluOp::Shr => {
                let c = r & (width.bytes() * 8 - 1);
                let v = (l & width.mask()) >> c;
                self.set_flags_logic(v, width);
                v
            }
            AluOp::Sar => {
                let c = r & (width.bytes() * 8 - 1);
                let bits = width.bytes() * 8;
                let sext = ((l << (64 - bits)) as i64) >> (64 - bits);
                let v = ((sext >> c) as u64) & width.mask();
                self.set_flags_logic(v, width);
                v
            }
            AluOp::Rol => {
                let bits = (width.bytes() * 8) as u32;
                let c = (r as u32) % bits;
                let lm = l & width.mask();
                // Rotate by zero is the identity; `bits - c` would be a
                // full-width (UB-in-hardware) shift.
                if c == 0 {
                    lm
                } else {
                    ((lm << c) | (lm >> (bits - c))) & width.mask()
                }
            }
            AluOp::Ror => {
                let bits = (width.bytes() * 8) as u32;
                let c = (r as u32) % bits;
                let lm = l & width.mask();
                if c == 0 {
                    lm
                } else {
                    ((lm >> c) | (lm << (bits - c))) & width.mask()
                }
            }
        };
        match mem_ea {
            Some(a) => self.dwrite(a, res, width),
            None => self.write_op(dst, res, width),
        }
        .map_err(|k| (k, "alu writeback"))
    }

    #[inline]
    fn exec_neg(&mut self, dst: &Operand, width: Width) -> StepResult {
        let mem_ea = match dst {
            Operand::Mem(m) => Some(self.ea_checked(m, width).map_err(|k| (k, "neg"))?),
            _ => None,
        };
        let v = match mem_ea {
            Some(a) => self.dread(a, width),
            None => self.read_op(dst, width),
        }
        .map_err(|k| (k, "neg"))?;
        let res = self.set_flags_sub(0, v, width);
        match mem_ea {
            Some(a) => self.dwrite(a, res, width),
            None => self.write_op(dst, res, width),
        }
        .map_err(|k| (k, "neg writeback"))
    }

    #[inline]
    fn exec_not(&mut self, dst: &Operand, width: Width) -> StepResult {
        let mem_ea = match dst {
            Operand::Mem(m) => Some(self.ea_checked(m, width).map_err(|k| (k, "not"))?),
            _ => None,
        };
        let v = match mem_ea {
            Some(a) => self.dread(a, width),
            None => self.read_op(dst, width),
        }
        .map_err(|k| (k, "not"))?;
        let res = !v & width.mask();
        match mem_ea {
            Some(a) => self.dwrite(a, res, width),
            None => self.write_op(dst, res, width),
        }
        .map_err(|k| (k, "not writeback"))
    }

    #[inline]
    fn exec_imul(&mut self, dst: Reg, src: &Operand, width: Width) -> StepResult {
        let l = self.regs[dst.index()] & width.mask();
        let r = self.read_op(src, width).map_err(|k| (k, "imul"))?;
        self.write_reg_w(dst, l.wrapping_mul(r) & width.mask(), width);
        Ok(())
    }

    #[inline]
    fn exec_imul3(&mut self, dst: Reg, src: &Operand, imm: i64, width: Width) -> StepResult {
        let r = self.read_op(src, width).map_err(|k| (k, "imul3"))?;
        self.write_reg_w(dst, r.wrapping_mul(imm as u64) & width.mask(), width);
        Ok(())
    }

    #[inline]
    fn exec_cqo(&mut self, width: Width) {
        let rax = self.regs[Reg::Rax.index()] & width.mask();
        let neg = rax & width.sign_bit() != 0;
        let v = if neg { width.mask() } else { 0 };
        self.write_reg_w(Reg::Rdx, v, width);
    }

    #[inline]
    fn exec_div(&mut self, src: &Operand, signed: bool, width: Width) -> StepResult {
        let divisor = self.read_op(src, width).map_err(|k| (k, "div"))?;
        if divisor == 0 {
            return Err((TrapKind::DivByZero, ""));
        }
        let mask = width.mask();
        let lo = self.regs[Reg::Rax.index()] & mask;
        let hi = self.regs[Reg::Rdx.index()] & mask;
        let bits = width.bytes() * 8;
        if signed {
            let dividend = ((hi as u128) << bits) | lo as u128;
            // Sign-extend the 2*bits dividend.
            let shift = 128 - 2 * bits as u32;
            let dividend = ((dividend << shift) as i128) >> shift;
            let dsor = {
                let s = 64 - bits;
                ((divisor << s) as i64 >> s) as i128
            };
            let q = dividend.wrapping_div(dsor);
            let r = dividend.wrapping_rem(dsor);
            let min = -(1i128 << (bits - 1));
            let max = (1i128 << (bits - 1)) - 1;
            if q < min || q > max {
                return Err((TrapKind::IntegerOverflow, "idiv quotient overflow"));
            }
            self.write_reg_w(Reg::Rax, q as u64 & mask, width);
            self.write_reg_w(Reg::Rdx, r as u64 & mask, width);
        } else {
            let dividend = ((hi as u128) << bits) | lo as u128;
            let q = dividend / divisor as u128;
            let r = dividend % divisor as u128;
            if q > mask as u128 {
                return Err((TrapKind::IntegerOverflow, "div quotient overflow"));
            }
            self.write_reg_w(Reg::Rax, q as u64, width);
            self.write_reg_w(Reg::Rdx, r as u64, width);
        }
        Ok(())
    }

    #[inline]
    fn exec_cmp(&mut self, lhs: &Operand, rhs: &Operand, width: Width) -> StepResult {
        let l = self.read_op(lhs, width).map_err(|k| (k, "cmp lhs"))?;
        let r = self.read_op(rhs, width).map_err(|k| (k, "cmp rhs"))?;
        self.set_flags_sub(l, r, width);
        Ok(())
    }

    #[inline]
    fn exec_test(&mut self, lhs: &Operand, rhs: &Operand, width: Width) -> StepResult {
        let l = self.read_op(lhs, width).map_err(|k| (k, "test lhs"))?;
        let r = self.read_op(rhs, width).map_err(|k| (k, "test rhs"))?;
        self.set_flags_logic(l & r, width);
        Ok(())
    }

    #[inline]
    fn exec_cmov(&mut self, cc: Cc, dst: Reg, src: &Operand, width: Width) -> StepResult {
        // The source (including memory) is read regardless of the
        // condition, as on hardware.
        let v = self.read_op(src, width).map_err(|k| (k, "cmov src"))?;
        if self.cond(cc) {
            self.write_reg_w(dst, v, width);
        } else if width == Width::W32 {
            // 32-bit cmov zero-extends the destination even when the move
            // does not happen.
            let cur = self.regs[dst.index()] & 0xffff_ffff;
            self.regs[dst.index()] = cur;
        }
        Ok(())
    }

    #[inline]
    fn exec_setcc(&mut self, cc: Cc, dst: Reg) {
        let v = u64::from(self.cond(cc));
        self.regs[dst.index()] = v;
    }

    #[inline]
    fn exec_lzcnt(&mut self, dst: Reg, src: &Operand, width: Width) -> StepResult {
        let v = self.read_op(src, width).map_err(|k| (k, "lzcnt"))?;
        let bits = (width.bytes() * 8) as u32;
        let n = if v == 0 {
            bits
        } else {
            v.leading_zeros() - (64 - bits)
        };
        self.write_reg_w(dst, n as u64, width);
        Ok(())
    }

    #[inline]
    fn exec_tzcnt(&mut self, dst: Reg, src: &Operand, width: Width) -> StepResult {
        let v = self.read_op(src, width).map_err(|k| (k, "tzcnt"))?;
        let bits = (width.bytes() * 8) as u32;
        let n = if v == 0 {
            bits
        } else {
            v.trailing_zeros().min(bits)
        };
        self.write_reg_w(dst, n as u64, width);
        Ok(())
    }

    #[inline]
    fn exec_popcnt(&mut self, dst: Reg, src: &Operand, width: Width) -> StepResult {
        let v = self.read_op(src, width).map_err(|k| (k, "popcnt"))?;
        self.write_reg_w(dst, v.count_ones() as u64, width);
        Ok(())
    }

    #[inline]
    fn exec_pop(&mut self, dst: Reg) -> StepResult {
        let rsp = self.regs[Reg::Rsp.index()];
        let v = self.dread(rsp, Width::W64).map_err(|k| (k, "pop"))?;
        self.regs[Reg::Rsp.index()] = rsp + 8;
        self.regs[dst.index()] = v;
        Ok(())
    }

    #[inline]
    fn exec_movf(&mut self, dst: &FOperand, src: &FOperand, prec: FPrec) -> StepResult {
        let v = self.read_fop(src, prec).map_err(|k| (k, "movf src"))?;
        match dst {
            FOperand::Xmm(x) => {
                // movss merges the low lane; our model holds one scalar per
                // register, so a full overwrite is semantically equivalent
                // for scalar code.
                self.xmm[x.index()] = v & match prec {
                    FPrec::F32 => 0xffff_ffff,
                    FPrec::F64 => u64::MAX,
                };
                Ok(())
            }
            FOperand::Mem(m) => {
                let w = match prec {
                    FPrec::F32 => Width::W32,
                    FPrec::F64 => Width::W64,
                };
                let a = self.ea_checked(m, w).map_err(|k| (k, "movf dst"))?;
                self.dwrite(a, v, w).map_err(|k| (k, "movf dst"))
            }
        }
    }

    #[inline]
    fn exec_aluf(&mut self, op: FAluOp, dst: Xmm, src: &FOperand, prec: FPrec) -> StepResult {
        let rv = self.read_fop(src, prec).map_err(|k| (k, "aluf src"))?;
        let lv = self.xmm[dst.index()];
        let res = match prec {
            FPrec::F32 => {
                let l = f32::from_bits(lv as u32);
                let r = f32::from_bits(rv as u32);
                let v = match op {
                    FAluOp::Add => l + r,
                    FAluOp::Sub => l - r,
                    FAluOp::Mul => l * r,
                    FAluOp::Div => l / r,
                    FAluOp::Min => wasmperf_isa::fpsem::wasm_min_f32(l, r),
                    FAluOp::Max => wasmperf_isa::fpsem::wasm_max_f32(l, r),
                };
                v.to_bits() as u64
            }
            FPrec::F64 => {
                let l = f64::from_bits(lv);
                let r = f64::from_bits(rv);
                let v = match op {
                    FAluOp::Add => l + r,
                    FAluOp::Sub => l - r,
                    FAluOp::Mul => l * r,
                    FAluOp::Div => l / r,
                    FAluOp::Min => wasmperf_isa::fpsem::wasm_min_f64(l, r),
                    FAluOp::Max => wasmperf_isa::fpsem::wasm_max_f64(l, r),
                };
                v.to_bits()
            }
        };
        self.xmm[dst.index()] = res;
        Ok(())
    }

    #[inline]
    fn exec_roundf(
        &mut self,
        dst: Xmm,
        src: &FOperand,
        prec: FPrec,
        mode: RoundMode,
    ) -> StepResult {
        let v = self.read_fop(src, prec).map_err(|k| (k, "roundf"))?;
        let x = match prec {
            FPrec::F32 => f32::from_bits(v as u32) as f64,
            FPrec::F64 => f64::from_bits(v),
        };
        let r = match mode {
            RoundMode::Floor => x.floor(),
            RoundMode::Ceil => x.ceil(),
            RoundMode::Trunc => x.trunc(),
            RoundMode::Nearest => {
                let r = x.round();
                if (x - x.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                    r - x.signum()
                } else {
                    r
                }
            }
        };
        self.xmm[dst.index()] = match prec {
            FPrec::F32 => (r as f32).to_bits() as u64,
            FPrec::F64 => r.to_bits(),
        };
        Ok(())
    }

    #[inline]
    fn exec_absf(&mut self, dst: Xmm, src: &FOperand, prec: FPrec) -> StepResult {
        let v = self.read_fop(src, prec).map_err(|k| (k, "absf"))?;
        self.xmm[dst.index()] = match prec {
            FPrec::F32 => (v as u32 & 0x7fff_ffff) as u64,
            FPrec::F64 => v & 0x7fff_ffff_ffff_ffff,
        };
        Ok(())
    }

    #[inline]
    fn exec_sqrtf(&mut self, dst: Xmm, src: &FOperand, prec: FPrec) -> StepResult {
        let v = self.read_fop(src, prec).map_err(|k| (k, "sqrtf"))?;
        self.xmm[dst.index()] = match prec {
            FPrec::F32 => f32::from_bits(v as u32).sqrt().to_bits() as u64,
            FPrec::F64 => f64::from_bits(v).sqrt().to_bits(),
        };
        Ok(())
    }

    #[inline]
    fn exec_ucomis(&mut self, lhs: Xmm, rhs: &FOperand, prec: FPrec) -> StepResult {
        let rv = self.read_fop(rhs, prec).map_err(|k| (k, "ucomis"))?;
        let lv = self.xmm[lhs.index()];
        let (l, r) = match prec {
            FPrec::F32 => (
                f32::from_bits(lv as u32) as f64,
                f32::from_bits(rv as u32) as f64,
            ),
            FPrec::F64 => (f64::from_bits(lv), f64::from_bits(rv)),
        };
        // x86 ucomis: unordered => ZF=PF=CF=1; == => ZF=1;
        // < => CF=1; > => all clear. SF/OF cleared.
        let (zf, pf, cf) = if l.is_nan() || r.is_nan() {
            (true, true, true)
        } else if l == r {
            (true, false, false)
        } else if l < r {
            (false, false, true)
        } else {
            (false, false, false)
        };
        self.flags = Flags {
            zf,
            pf,
            cf,
            sf: false,
            of: false,
        };
        Ok(())
    }

    #[inline]
    fn exec_cvt_int_to_f(
        &mut self,
        dst: Xmm,
        src: &Operand,
        width: Width,
        prec: FPrec,
        unsigned: bool,
    ) -> StepResult {
        let v = self.read_op(src, width).map_err(|k| (k, "cvtint2f"))?;
        let as_f64 = if unsigned {
            v as f64
        } else {
            let bits = width.bytes() * 8;
            (((v << (64 - bits)) as i64) >> (64 - bits)) as f64
        };
        self.xmm[dst.index()] = match prec {
            FPrec::F32 => (as_f64 as f32).to_bits() as u64,
            FPrec::F64 => as_f64.to_bits(),
        };
        Ok(())
    }

    #[inline]
    fn exec_cvt_f_to_int(
        &mut self,
        dst: Reg,
        src: &FOperand,
        width: Width,
        prec: FPrec,
        unsigned: bool,
    ) -> StepResult {
        let v = self.read_fop(src, prec).map_err(|k| (k, "cvtf2int"))?;
        let x = match prec {
            FPrec::F32 => f32::from_bits(v as u32) as f64,
            FPrec::F64 => f64::from_bits(v),
        };
        if x.is_nan() {
            return Err((TrapKind::IntegerOverflow, "convert NaN to int"));
        }
        let t = x.trunc();
        let bits = width.bytes() * 8;
        let res = if unsigned {
            let max = if bits == 64 {
                u64::MAX as f64
            } else {
                ((1u128 << bits) - 1) as f64
            };
            if t < 0.0 || t > max {
                return Err((TrapKind::IntegerOverflow, "f->u out of range"));
            }
            t as u64
        } else {
            let min = -((1i128 << (bits - 1)) as f64);
            let max = ((1i128 << (bits - 1)) - 1) as f64;
            if t < min || t > max {
                return Err((TrapKind::IntegerOverflow, "f->i out of range"));
            }
            (t as i64) as u64
        };
        self.write_reg_w(dst, res & width.mask(), width);
        Ok(())
    }

    #[inline]
    fn exec_cvt_f_to_f(&mut self, dst: Xmm, src: &FOperand, from: FPrec) -> StepResult {
        let v = self.read_fop(src, from).map_err(|k| (k, "cvtf2f"))?;
        self.xmm[dst.index()] = match from {
            FPrec::F32 => (f32::from_bits(v as u32) as f64).to_bits(),
            FPrec::F64 => (f64::from_bits(v) as f32).to_bits() as u64,
        };
        Ok(())
    }

    #[inline]
    fn exec_mov_gpr_to_xmm(&mut self, dst: Xmm, src: Reg, width: Width) {
        self.xmm[dst.index()] = self.regs[src.index()] & width.mask();
    }

    #[inline]
    fn exec_mov_xmm_to_gpr(&mut self, dst: Reg, src: Xmm, width: Width) {
        let v = self.xmm[src.index()] & width.mask();
        self.write_reg_w(dst, v, width);
    }
}

/// Error payload of a shared instruction-semantics helper: the trap kind
/// plus the same static detail string the interpreter has always reported.
type StepResult = Result<(), (TrapKind, &'static str)>;

/// Control-flow outcome of a threaded-dispatch handler.
enum Flow {
    /// Continue with the next op in the superblock (or its fallthrough).
    Next,
    /// Transfer to a superblock of the current function; `orig_target` is
    /// the original destination index, for the "fell off end" abort when
    /// the label binds to the function end ([`NO_SB`]).
    Jump { sb: u32, orig_target: u32 },
    /// Call into `func` at its entry.
    Enter { func: u32 },
    /// Return into `func` at original instruction index `ret_pc`.
    RetTo { func: u32, ret_pc: u32 },
    /// The program finished: `ret` with an empty shadow stack (no exit
    /// code) or a host `exit`.
    Finish { exit_code: Option<i32> },
}

/// Handler result: where control goes next, or a trap with its detail
/// string (allocated only on this cold path).
type HRes = Result<Flow, (TrapKind, String)>;

/// A direct-threaded op handler. The higher-ranked lifetime keeps
/// [`Machine`] covariant in its module lifetime even though the handler
/// table is stored on the machine itself.
type Handler<H> = for<'a> fn(&mut Machine<'a, H>, &TOp) -> HRes;

/// Converts a [`StepResult`] error into the handler error payload.
fn strap((k, d): (TrapKind, &'static str)) -> (TrapKind, String) {
    (k, d.to_string())
}

/// Wraps a shared `exec_*` semantics helper as a fall-through handler.
macro_rules! next {
    ($r:expr) => {{
        $r.map_err(strap)?;
        Ok(Flow::Next)
    }};
}

fn h_mov<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Mov { dst, src, width } = &t.op else {
        unreachable!()
    };
    next!(m.exec_mov(dst, src, *width))
}

fn h_movzx<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Movzx { dst, src, from } = &t.op else {
        unreachable!()
    };
    next!(m.exec_movzx(*dst, src, *from))
}

fn h_movsx<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Movsx { dst, src, from, to } = &t.op else {
        unreachable!()
    };
    next!(m.exec_movsx(*dst, src, *from, *to))
}

fn h_lea<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Lea { dst, mem, width } = &t.op else {
        unreachable!()
    };
    m.exec_lea(*dst, mem, *width);
    Ok(Flow::Next)
}

fn h_alu<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Alu {
        op,
        dst,
        src,
        width,
    } = &t.op
    else {
        unreachable!()
    };
    next!(m.exec_alu(*op, dst, src, *width))
}

fn h_neg<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Neg { dst, width } = &t.op else {
        unreachable!()
    };
    next!(m.exec_neg(dst, *width))
}

fn h_not<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Not { dst, width } = &t.op else {
        unreachable!()
    };
    next!(m.exec_not(dst, *width))
}

fn h_imul<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Imul { dst, src, width } = &t.op else {
        unreachable!()
    };
    next!(m.exec_imul(*dst, src, *width))
}

fn h_imul3<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Imul3 {
        dst,
        src,
        imm,
        width,
    } = &t.op
    else {
        unreachable!()
    };
    next!(m.exec_imul3(*dst, src, *imm, *width))
}

fn h_cqo<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Cqo { width } = &t.op else {
        unreachable!()
    };
    m.exec_cqo(*width);
    Ok(Flow::Next)
}

fn h_div<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Div { src, signed, width } = &t.op else {
        unreachable!()
    };
    next!(m.exec_div(src, *signed, *width))
}

fn h_cmp<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Cmp { lhs, rhs, width } = &t.op else {
        unreachable!()
    };
    next!(m.exec_cmp(lhs, rhs, *width))
}

fn h_test<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Test { lhs, rhs, width } = &t.op else {
        unreachable!()
    };
    next!(m.exec_test(lhs, rhs, *width))
}

fn h_cmov<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Cmov {
        cc,
        dst,
        src,
        width,
    } = &t.op
    else {
        unreachable!()
    };
    next!(m.exec_cmov(*cc, *dst, src, *width))
}

fn h_setcc<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Setcc { cc, dst } = &t.op else {
        unreachable!()
    };
    m.exec_setcc(*cc, *dst);
    Ok(Flow::Next)
}

fn h_lzcnt<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Lzcnt { dst, src, width } = &t.op else {
        unreachable!()
    };
    next!(m.exec_lzcnt(*dst, src, *width))
}

fn h_tzcnt<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Tzcnt { dst, src, width } = &t.op else {
        unreachable!()
    };
    next!(m.exec_tzcnt(*dst, src, *width))
}

fn h_popcnt<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Popcnt { dst, src, width } = &t.op else {
        unreachable!()
    };
    next!(m.exec_popcnt(*dst, src, *width))
}

/// Unmerged `jmp`: always transfers to the pre-resolved superblock.
fn h_jmp<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Jmp { target } = t.op else {
        unreachable!()
    };
    m.counters.branches_retired += 1;
    Ok(Flow::Jump {
        sb: t.target_sb,
        orig_target: target,
    })
}

/// `jmp` whose target block is laid out directly after it in the same
/// superblock: retires as a branch but dispatches as fall-through.
fn h_jmp_merged<H: HostEnv>(m: &mut Machine<'_, H>, _t: &TOp) -> HRes {
    m.counters.branches_retired += 1;
    Ok(Flow::Next)
}

fn h_jcc<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Jcc { cc, target } = t.op else {
        unreachable!()
    };
    m.counters.branches_retired += 1;
    m.counters.cond_branches_retired += 1;
    let taken = m.cond(cc);
    if m.predictor.predict_and_update(t.addr, taken) {
        m.cycle_fp += m.timing.mispredict_penalty as u64;
    }
    if taken {
        Ok(Flow::Jump {
            sb: t.target_sb,
            orig_target: target,
        })
    } else {
        Ok(Flow::Next)
    }
}

fn h_call<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Call { target } = t.op else {
        unreachable!()
    };
    m.counters.branches_retired += 1;
    if m.call_stack.len() >= m.max_call_depth {
        return Err((TrapKind::StackOverflow, "call depth".to_string()));
    }
    if target.0 as usize >= m.module.funcs.len() {
        return Err((TrapKind::Abort, "call to unknown function".to_string()));
    }
    let ret_pc = t.orig_pc + 1;
    m.push_val_raw(RET_TOKEN | ret_pc as u64).map_err(strap)?;
    m.call_stack.push(Frame {
        func: t.func,
        ret_pc,
        rsp_at_call: m.regs[Reg::Rsp.index()],
    });
    Ok(Flow::Enter { func: target.0 })
}

fn h_call_indirect<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::CallIndirect { target } = &t.op else {
        unreachable!()
    };
    m.counters.branches_retired += 1;
    let v = m
        .read_op(target, Width::W64)
        .map_err(|k| (k, "call-indirect operand".to_string()))?;
    if v as usize >= m.module.funcs.len() {
        return Err((
            TrapKind::IndirectCallOutOfBounds,
            format!("bad function id {v:#x}"),
        ));
    }
    if m.call_stack.len() >= m.max_call_depth {
        return Err((TrapKind::StackOverflow, "call depth".to_string()));
    }
    let ret_pc = t.orig_pc + 1;
    m.push_val_raw(RET_TOKEN | ret_pc as u64).map_err(strap)?;
    m.call_stack.push(Frame {
        func: t.func,
        ret_pc,
        rsp_at_call: m.regs[Reg::Rsp.index()],
    });
    Ok(Flow::Enter { func: v as u32 })
}

fn h_call_host<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::CallHost { id } = t.op else {
        unreachable!()
    };
    m.counters.branches_retired += 1;
    m.counters.host_calls += 1;
    m.cycle_fp += m.pku_fp;
    let args = [
        m.regs[Reg::Rdi.index()],
        m.regs[Reg::Rsi.index()],
        m.regs[Reg::Rdx.index()],
        m.regs[Reg::Rcx.index()],
        m.regs[Reg::R8.index()],
        m.regs[Reg::R9.index()],
    ];
    match m.host.call(id, &args, &mut m.mem) {
        Ok(HostOutcome::Ret {
            value,
            kernel_cycles,
        }) => {
            m.regs[Reg::Rax.index()] = value;
            m.counters.host_cycles += kernel_cycles;
            Ok(Flow::Next)
        }
        Ok(HostOutcome::Exit {
            code,
            kernel_cycles,
        }) => {
            m.counters.host_cycles += kernel_cycles;
            Ok(Flow::Finish {
                exit_code: Some(code),
            })
        }
        Err(k) => Err((k, format!("host call {id}"))),
    }
}

fn h_push<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Push { src } = &t.op else {
        unreachable!()
    };
    let v = m
        .read_op(src, Width::W64)
        .map_err(|k| (k, "push src".to_string()))?;
    next!(m.push_val_raw(v))
}

fn h_pop<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Pop { dst } = &t.op else {
        unreachable!()
    };
    next!(m.exec_pop(*dst))
}

fn h_ret<H: HostEnv>(m: &mut Machine<'_, H>, _t: &TOp) -> HRes {
    m.counters.branches_retired += 1;
    let rsp = m.regs[Reg::Rsp.index()];
    m.dread(rsp, Width::W64)
        .map_err(|k| (k, "ret pop".to_string()))?;
    m.regs[Reg::Rsp.index()] = rsp + 8;
    match m.call_stack.pop() {
        Some(frame) => {
            if frame.rsp_at_call != rsp {
                return Err((
                    TrapKind::Abort,
                    format!(
                        "rsp mismatch on ret: {:#x} != {:#x}",
                        rsp, frame.rsp_at_call
                    ),
                ));
            }
            Ok(Flow::RetTo {
                func: frame.func,
                ret_pc: frame.ret_pc,
            })
        }
        None => Ok(Flow::Finish { exit_code: None }),
    }
}

fn h_movf<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::MovF { dst, src, prec } = &t.op else {
        unreachable!()
    };
    next!(m.exec_movf(dst, src, *prec))
}

fn h_aluf<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::AluF { op, dst, src, prec } = &t.op else {
        unreachable!()
    };
    next!(m.exec_aluf(*op, *dst, src, *prec))
}

fn h_roundf<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::RoundF {
        dst,
        src,
        prec,
        mode,
    } = &t.op
    else {
        unreachable!()
    };
    next!(m.exec_roundf(*dst, src, *prec, *mode))
}

fn h_absf<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::AbsF { dst, src, prec } = &t.op else {
        unreachable!()
    };
    next!(m.exec_absf(*dst, src, *prec))
}

fn h_sqrtf<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::SqrtF { dst, src, prec } = &t.op else {
        unreachable!()
    };
    next!(m.exec_sqrtf(*dst, src, *prec))
}

fn h_ucomis<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Ucomis { lhs, rhs, prec } = &t.op else {
        unreachable!()
    };
    next!(m.exec_ucomis(*lhs, rhs, *prec))
}

fn h_cvt_int_to_f<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::CvtIntToF {
        dst,
        src,
        width,
        prec,
        unsigned,
    } = &t.op
    else {
        unreachable!()
    };
    next!(m.exec_cvt_int_to_f(*dst, src, *width, *prec, *unsigned))
}

fn h_cvt_f_to_int<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::CvtFToInt {
        dst,
        src,
        width,
        prec,
        unsigned,
    } = &t.op
    else {
        unreachable!()
    };
    next!(m.exec_cvt_f_to_int(*dst, src, *width, *prec, *unsigned))
}

fn h_cvt_f_to_f<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::CvtFToF { dst, src, from } = &t.op else {
        unreachable!()
    };
    next!(m.exec_cvt_f_to_f(*dst, src, *from))
}

fn h_gpr_to_xmm<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::MovGprToXmm { dst, src, width } = t.op else {
        unreachable!()
    };
    m.exec_mov_gpr_to_xmm(dst, src, width);
    Ok(Flow::Next)
}

fn h_xmm_to_gpr<H: HostEnv>(m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::MovXmmToGpr { dst, src, width } = t.op else {
        unreachable!()
    };
    m.exec_mov_xmm_to_gpr(dst, src, width);
    Ok(Flow::Next)
}

fn h_trap<H: HostEnv>(_m: &mut Machine<'_, H>, t: &TOp) -> HRes {
    let MOp::Trap { kind } = t.op else {
        unreachable!()
    };
    Err((kind, "explicit trap".to_string()))
}

fn h_nop<H: HostEnv>(_m: &mut Machine<'_, H>, _t: &TOp) -> HRes {
    Ok(Flow::Next)
}

/// Selects the dispatch handler for one op — the one `match` the threaded
/// engine performs per op *at table-build time* instead of per execution.
fn handler_for<H: HostEnv>(t: &TOp) -> Handler<H> {
    match t.op {
        MOp::Mov { .. } => h_mov,
        MOp::Movzx { .. } => h_movzx,
        MOp::Movsx { .. } => h_movsx,
        MOp::Lea { .. } => h_lea,
        MOp::Alu { .. } => h_alu,
        MOp::Neg { .. } => h_neg,
        MOp::Not { .. } => h_not,
        MOp::Imul { .. } => h_imul,
        MOp::Imul3 { .. } => h_imul3,
        MOp::Cqo { .. } => h_cqo,
        MOp::Div { .. } => h_div,
        MOp::Cmp { .. } => h_cmp,
        MOp::Test { .. } => h_test,
        MOp::Cmov { .. } => h_cmov,
        MOp::Setcc { .. } => h_setcc,
        MOp::Lzcnt { .. } => h_lzcnt,
        MOp::Tzcnt { .. } => h_tzcnt,
        MOp::Popcnt { .. } => h_popcnt,
        MOp::Jmp { .. } => {
            if t.merged_jmp {
                h_jmp_merged
            } else {
                h_jmp
            }
        }
        MOp::Jcc { .. } => h_jcc,
        MOp::Call { .. } => h_call,
        MOp::CallIndirect { .. } => h_call_indirect,
        MOp::CallHost { .. } => h_call_host,
        MOp::Push { .. } => h_push,
        MOp::Pop { .. } => h_pop,
        MOp::Ret => h_ret,
        MOp::MovF { .. } => h_movf,
        MOp::AluF { .. } => h_aluf,
        MOp::RoundF { .. } => h_roundf,
        MOp::AbsF { .. } => h_absf,
        MOp::SqrtF { .. } => h_sqrtf,
        MOp::Ucomis { .. } => h_ucomis,
        MOp::CvtIntToF { .. } => h_cvt_int_to_f,
        MOp::CvtFToInt { .. } => h_cvt_f_to_int,
        MOp::CvtFToF { .. } => h_cvt_f_to_f,
        MOp::MovGprToXmm { .. } => h_gpr_to_xmm,
        MOp::MovXmmToGpr { .. } => h_xmm_to_gpr,
        MOp::Trap { .. } => h_trap,
        MOp::Nop => h_nop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::NullHost;
    use wasmperf_isa::{AsmBuilder, Function};

    fn module_of(funcs: Vec<Function>) -> Module {
        let mut m = Module {
            funcs,
            table: vec![],
            entry: Some(FuncId(0)),
            memory_size: 4096,
            data: vec![],
            sandbox: None,
        };
        m.assign_addresses();
        m
    }

    fn run_module(m: &Module, args: &[u64]) -> RunOutcome {
        let mut machine = Machine::new(m, NullHost);
        machine.run(FuncId(0), args, 1_000_000).expect("runs")
    }

    #[test]
    fn returns_constant() {
        let mut b = AsmBuilder::new("f");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(42),
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[]).ret, 42);
    }

    #[test]
    fn profile_attributes_every_instruction() {
        let mut b = AsmBuilder::new("f");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(42),
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);

        let mut plain = Machine::new(&m, NullHost);
        let base = plain.run(FuncId(0), &[], 1_000_000).expect("runs");

        let mut traced = Machine::new(&m, NullHost);
        traced.enable_profile();
        let out = traced.run(FuncId(0), &[], 1_000_000).expect("runs");
        let profile = traced.take_profile().expect("profile enabled");

        // Profiling observes; it must not perturb the run.
        assert_eq!(out.ret, base.ret);
        assert_eq!(out.counters, base.counters);
        // Every retired instruction and every fixed-point cycle lands in
        // exactly one address bucket.
        assert_eq!(
            profile.total_instructions(),
            out.counters.instructions_retired
        );
        assert_eq!(fp_to_cycles(profile.total_cycles_fp()), out.counters.cycles);
        assert_eq!(profile.len(), 2);
        assert!(traced.take_profile().is_none());
    }

    #[test]
    fn adds_arguments() {
        let mut b = AsmBuilder::new("add");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Reg(Reg::Rdi),
            width: Width::W64,
        });
        b.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Reg(Reg::Rsi),
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[30, 12]).ret, 42);
    }

    #[test]
    fn loop_sums_one_to_n() {
        // rax = sum(1..=rdi) via a countdown loop.
        let mut b = AsmBuilder::new("sum");
        let top = b.new_label();
        b.emit(Inst::Alu {
            op: AluOp::Xor,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Reg(Reg::Rax),
            width: Width::W64,
        });
        b.bind(top);
        b.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Reg(Reg::Rdi),
            width: Width::W64,
        });
        b.emit(Inst::Alu {
            op: AluOp::Sub,
            dst: Operand::Reg(Reg::Rdi),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        b.emit(Inst::Jcc {
            cc: Cc::Ne,
            target: top,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let out = run_module(&m, &[100]);
        assert_eq!(out.ret, 5050);
        assert_eq!(out.counters.cond_branches_retired, 100);
        assert!(out.counters.instructions_retired > 300);
        assert!(out.counters.cycles > 0);
    }

    #[test]
    fn memory_load_store_counts() {
        let mut b = AsmBuilder::new("mem");
        b.emit(Inst::Mov {
            dst: Operand::Mem(MemRef::abs(64)),
            src: Operand::Imm(7),
            width: Width::W64,
        });
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Mem(MemRef::abs(64)),
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let out = run_module(&m, &[]);
        assert_eq!(out.ret, 7);
        assert_eq!(out.counters.stores_retired, 1);
        // Load + the implicit ret pop.
        assert_eq!(out.counters.loads_retired, 2);
    }

    #[test]
    fn rmw_alu_counts_load_and_store() {
        let mut b = AsmBuilder::new("rmw");
        b.emit(Inst::Mov {
            dst: Operand::Mem(MemRef::abs(64)),
            src: Operand::Imm(40),
            width: Width::W32,
        });
        b.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Mem(MemRef::abs(64)),
            src: Operand::Imm(2),
            width: Width::W32,
        });
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Mem(MemRef::abs(64)),
            width: Width::W32,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let out = run_module(&m, &[]);
        assert_eq!(out.ret, 42);
        assert_eq!(out.counters.stores_retired, 2);
        assert_eq!(out.counters.loads_retired, 3); // rmw load + mov load + ret.
    }

    #[test]
    fn call_and_ret_roundtrip() {
        let mut callee = AsmBuilder::new("callee");
        callee.emit(Inst::Lea {
            dst: Reg::Rax,
            mem: MemRef::base_disp(Reg::Rdi, 1),
            width: Width::W64,
        });
        callee.emit(Inst::Ret);

        let mut caller = AsmBuilder::new("caller");
        caller.emit(Inst::Call { target: FuncId(1) });
        caller.emit(Inst::Ret);
        let m = module_of(vec![caller.finish(), callee.finish()]);
        let out = run_module(&m, &[41]);
        assert_eq!(out.ret, 42);
        // call + 2 rets are branches.
        assert_eq!(out.counters.branches_retired, 3);
    }

    #[test]
    fn indirect_call_through_register() {
        let mut callee = AsmBuilder::new("callee");
        callee.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(99),
            width: Width::W64,
        });
        callee.emit(Inst::Ret);

        let mut caller = AsmBuilder::new("caller");
        caller.emit(Inst::Mov {
            dst: Operand::Reg(Reg::R8),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        caller.emit(Inst::CallIndirect {
            target: Operand::Reg(Reg::R8),
        });
        caller.emit(Inst::Ret);
        let m = module_of(vec![caller.finish(), callee.finish()]);
        assert_eq!(run_module(&m, &[]).ret, 99);
    }

    #[test]
    fn indirect_call_bad_id_traps() {
        let mut caller = AsmBuilder::new("caller");
        caller.emit(Inst::Mov {
            dst: Operand::Reg(Reg::R8),
            src: Operand::Imm(77),
            width: Width::W64,
        });
        caller.emit(Inst::CallIndirect {
            target: Operand::Reg(Reg::R8),
        });
        caller.emit(Inst::Ret);
        let m = module_of(vec![caller.finish()]);
        let mut machine = Machine::new(&m, NullHost);
        let err = machine.run(FuncId(0), &[], 1000).unwrap_err();
        assert_eq!(err.kind, TrapKind::IndirectCallOutOfBounds);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut b = AsmBuilder::new("d");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(10),
            width: Width::W64,
        });
        b.emit(Inst::Cqo { width: Width::W64 });
        b.emit(Inst::Div {
            src: Operand::Reg(Reg::Rcx),
            signed: true,
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let mut machine = Machine::new(&m, NullHost);
        let err = machine.run(FuncId(0), &[], 1000).unwrap_err();
        assert_eq!(err.kind, TrapKind::DivByZero);
    }

    #[test]
    fn signed_division_semantics() {
        // -7 / 2 = -3 rem -1 (x86 truncated division).
        let mut b = AsmBuilder::new("d");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(-7),
            width: Width::W64,
        });
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rcx),
            src: Operand::Imm(2),
            width: Width::W64,
        });
        b.emit(Inst::Cqo { width: Width::W64 });
        b.emit(Inst::Div {
            src: Operand::Reg(Reg::Rcx),
            signed: true,
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let mut machine = Machine::new(&m, NullHost);
        let out = machine.run(FuncId(0), &[], 1000).unwrap();
        assert_eq!(out.ret as i64, -3);
        assert_eq!(machine.reg(Reg::Rdx) as i64, -1);
    }

    #[test]
    fn unsigned_32bit_division() {
        let mut b = AsmBuilder::new("d");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(0xffff_fffe),
            width: Width::W32,
        });
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rdx),
            src: Operand::Imm(0),
            width: Width::W32,
        });
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rcx),
            src: Operand::Imm(3),
            width: Width::W32,
        });
        b.emit(Inst::Div {
            src: Operand::Reg(Reg::Rcx),
            signed: false,
            width: Width::W32,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[]).ret, 0xffff_fffe / 3);
    }

    #[test]
    fn float_arithmetic() {
        let mut b = AsmBuilder::new("f");
        // xmm0 = 2.5 via memory constant.
        b.emit(Inst::Mov {
            dst: Operand::Mem(MemRef::abs(32)),
            src: Operand::Imm(2.5f64.to_bits() as i64),
            width: Width::W64,
        });
        b.emit(Inst::MovF {
            dst: FOperand::Xmm(wasmperf_isa::Xmm(0)),
            src: FOperand::Mem(MemRef::abs(32)),
            prec: FPrec::F64,
        });
        b.emit(Inst::AluF {
            op: FAluOp::Mul,
            dst: wasmperf_isa::Xmm(0),
            src: FOperand::Xmm(wasmperf_isa::Xmm(0)),
            prec: FPrec::F64,
        });
        b.emit(Inst::CvtFToInt {
            dst: Reg::Rax,
            src: FOperand::Xmm(wasmperf_isa::Xmm(0)),
            width: Width::W64,
            prec: FPrec::F64,
            unsigned: false,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[]).ret, 6); // trunc(6.25).
    }

    #[test]
    fn fuel_exhaustion() {
        let mut b = AsmBuilder::new("spin");
        let top = b.new_label();
        b.bind(top);
        b.emit(Inst::Jmp { target: top });
        let m = module_of(vec![b.finish()]);
        let mut machine = Machine::new(&m, NullHost);
        let err = machine.run(FuncId(0), &[], 10_000).unwrap_err();
        assert_eq!(err.kind, TrapKind::OutOfFuel);
    }

    #[test]
    fn push_pop_stack_discipline() {
        let mut b = AsmBuilder::new("pp");
        b.emit(Inst::Push {
            src: Operand::Reg(Reg::Rdi),
        });
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rdi),
            src: Operand::Imm(0),
            width: Width::W64,
        });
        b.emit(Inst::Pop { dst: Reg::Rax });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[1234]).ret, 1234);
    }

    #[test]
    fn stack_frame_mismatch_detected() {
        // A function that pushes without popping corrupts rsp; ret traps.
        let mut b = AsmBuilder::new("bad");
        b.emit(Inst::Push {
            src: Operand::Imm(0),
        });
        b.emit(Inst::Ret);
        let mut caller = AsmBuilder::new("caller");
        caller.emit(Inst::Call { target: FuncId(1) });
        caller.emit(Inst::Ret);
        let m = module_of(vec![caller.finish(), b.finish()]);
        let mut machine = Machine::new(&m, NullHost);
        let err = machine.run(FuncId(0), &[], 1000).unwrap_err();
        assert_eq!(err.kind, TrapKind::Abort);
        assert!(err.detail.contains("rsp mismatch"), "{}", err.detail);
    }

    #[test]
    fn explicit_trap_reports_kind() {
        let mut b = AsmBuilder::new("t");
        b.emit(Inst::Trap {
            kind: TrapKind::StackOverflow,
        });
        let m = module_of(vec![b.finish()]);
        let mut machine = Machine::new(&m, NullHost);
        let err = machine.run(FuncId(0), &[], 1000).unwrap_err();
        assert_eq!(err.kind, TrapKind::StackOverflow);
    }

    #[test]
    fn width32_ops_zero_extend() {
        let mut b = AsmBuilder::new("w");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(-1),
            width: Width::W64,
        });
        b.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(2),
            width: Width::W32,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        // 32-bit add wraps and zero-extends: 0xffffffff + 2 = 1.
        assert_eq!(run_module(&m, &[]).ret, 1);
    }

    #[test]
    fn movsx_sign_extends() {
        let mut b = AsmBuilder::new("sx");
        b.emit(Inst::Mov {
            dst: Operand::Mem(MemRef::abs(16)),
            src: Operand::Imm(0xff),
            width: Width::W8,
        });
        b.emit(Inst::Movsx {
            dst: Reg::Rax,
            src: Operand::Mem(MemRef::abs(16)),
            from: Width::W8,
            to: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[]).ret as i64, -1);
    }

    #[test]
    fn unsigned_compare_uses_carry() {
        let mut b = AsmBuilder::new("u");
        // 1 < 0xffffffff unsigned => setb rax = 1.
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rcx),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rdx),
            src: Operand::Imm(0xffff_ffff),
            width: Width::W64,
        });
        b.emit(Inst::Cmp {
            lhs: Operand::Reg(Reg::Rcx),
            rhs: Operand::Reg(Reg::Rdx),
            width: Width::W64,
        });
        b.emit(Inst::Setcc {
            cc: Cc::B,
            dst: Reg::Rax,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[]).ret, 1);
    }

    #[test]
    fn signed_compare_negative() {
        let mut b = AsmBuilder::new("s");
        // -5 < 3 signed => setl = 1; but unsigned -5 > 3 => setb = 0.
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rcx),
            src: Operand::Imm(-5),
            width: Width::W64,
        });
        b.emit(Inst::Cmp {
            lhs: Operand::Reg(Reg::Rcx),
            rhs: Operand::Imm(3),
            width: Width::W64,
        });
        b.emit(Inst::Setcc {
            cc: Cc::L,
            dst: Reg::Rax,
        });
        b.emit(Inst::Setcc {
            cc: Cc::B,
            dst: Reg::Rdx,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let mut machine = Machine::new(&m, NullHost);
        let out = machine.run(FuncId(0), &[], 1000).unwrap();
        assert_eq!(out.ret, 1);
        assert_eq!(machine.reg(Reg::Rdx), 0);
    }

    #[test]
    fn shifts_mask_count() {
        let mut b = AsmBuilder::new("sh");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        b.emit(Inst::Alu {
            op: AluOp::Shl,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(65), // Masked to 1 for W64.
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[]).ret, 2);
    }

    #[test]
    fn sar_is_arithmetic() {
        let mut b = AsmBuilder::new("sar");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(-8),
            width: Width::W64,
        });
        b.emit(Inst::Alu {
            op: AluOp::Sar,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(2),
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[]).ret as i64, -2);
    }

    #[test]
    fn host_call_exit() {
        struct ExitHost;
        impl HostEnv for ExitHost {
            fn call(
                &mut self,
                id: u32,
                args: &[u64; 6],
                _mem: &mut Memory,
            ) -> Result<HostOutcome, TrapKind> {
                assert_eq!(id, 1);
                Ok(HostOutcome::Exit {
                    code: args[0] as i32,
                    kernel_cycles: 100,
                })
            }
        }
        let mut b = AsmBuilder::new("main");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rdi),
            src: Operand::Imm(3),
            width: Width::W64,
        });
        b.emit(Inst::CallHost { id: 1 });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let mut machine = Machine::new(&m, ExitHost);
        let out = machine.run(FuncId(0), &[], 1000).unwrap();
        assert_eq!(out.exit_code, Some(3));
        assert_eq!(out.counters.host_calls, 1);
        assert_eq!(out.counters.host_cycles, 100);
    }

    #[test]
    fn lea_computes_full_addressing_mode() {
        let mut b = AsmBuilder::new("lea");
        b.emit(Inst::Lea {
            dst: Reg::Rax,
            mem: MemRef::full(Reg::Rdi, Reg::Rsi, 4, 100),
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[1000, 5]).ret, 1000 + 5 * 4 + 100);
    }

    #[test]
    fn bit_count_instructions() {
        let mut b = AsmBuilder::new("bits");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rcx),
            src: Operand::Imm(0b1011_0000),
            width: Width::W64,
        });
        b.emit(Inst::Popcnt {
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rcx),
            width: Width::W64,
        });
        b.emit(Inst::Tzcnt {
            dst: Reg::Rdx,
            src: Operand::Reg(Reg::Rcx),
            width: Width::W64,
        });
        b.emit(Inst::Lzcnt {
            dst: Reg::Rsi,
            src: Operand::Reg(Reg::Rcx),
            width: Width::W32,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let mut machine = Machine::new(&m, NullHost);
        let out = machine.run(FuncId(0), &[], 1000).unwrap();
        assert_eq!(out.ret, 3);
        assert_eq!(machine.reg(Reg::Rdx), 4);
        assert_eq!(machine.reg(Reg::Rsi), 24);
    }

    #[test]
    fn cmov_moves_only_when_condition_holds() {
        let mut b = AsmBuilder::new("cm");
        // rax = 5; if (rdi < 10) rax = rsi (cmovl).
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(5),
            width: Width::W64,
        });
        b.emit(Inst::Cmp {
            lhs: Operand::Reg(Reg::Rdi),
            rhs: Operand::Imm(10),
            width: Width::W64,
        });
        b.emit(Inst::Cmov {
            cc: Cc::L,
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rsi),
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        assert_eq!(run_module(&m, &[3, 77]).ret, 77); // 3 < 10: moved.
        assert_eq!(run_module(&m, &[30, 77]).ret, 5); // 30 >= 10: kept.
    }

    #[test]
    fn cmov_counts_as_plain_instruction_not_branch() {
        let mut b = AsmBuilder::new("cm2");
        b.emit(Inst::Cmp {
            lhs: Operand::Reg(Reg::Rdi),
            rhs: Operand::Imm(0),
            width: Width::W64,
        });
        b.emit(Inst::Cmov {
            cc: Cc::E,
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rsi),
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let out = run_module(&m, &[0, 9]);
        assert_eq!(out.ret, 9);
        assert_eq!(out.counters.cond_branches_retired, 0);
        // Only the final ret is a branch.
        assert_eq!(out.counters.branches_retired, 1);
    }

    #[test]
    fn dcache_overlap_hides_issue_cost_under_misses() {
        // A loop striding 64 B (one miss per iteration) plus filler ALU
        // work: with overlap, adding filler costs much less than its raw
        // issue cost.
        let build = |filler: usize| {
            let mut b = AsmBuilder::new("mem");
            let top = b.new_label();
            b.emit(Inst::Mov {
                dst: Operand::Reg(Reg::Rdi),
                src: Operand::Imm(0),
                width: Width::W64,
            });
            b.bind(top);
            b.emit(Inst::Mov {
                dst: Operand::Reg(Reg::Rax),
                src: Operand::Mem(MemRef::base(Reg::Rdi)),
                width: Width::W64,
            });
            for _ in 0..filler {
                b.emit(Inst::Alu {
                    op: AluOp::Add,
                    dst: Operand::Reg(Reg::Rcx),
                    src: Operand::Imm(1),
                    width: Width::W64,
                });
            }
            b.emit(Inst::Alu {
                op: AluOp::Add,
                dst: Operand::Reg(Reg::Rdi),
                src: Operand::Imm(64),
                width: Width::W64,
            });
            b.emit(Inst::Cmp {
                lhs: Operand::Reg(Reg::Rdi),
                rhs: Operand::Imm(512 * 1024),
                width: Width::W64,
            });
            b.emit(Inst::Jcc {
                cc: Cc::Ne,
                target: top,
            });
            b.emit(Inst::Ret);
            let mut m = Module {
                funcs: vec![b.finish()],
                table: vec![],
                entry: Some(FuncId(0)),
                memory_size: 1024 * 1024,
                data: vec![],
                sandbox: None,
            };
            m.assign_addresses();
            m
        };
        let run_cycles = |m: &Module| {
            let mut machine = Machine::new(m, NullHost);
            machine
                .run(FuncId(0), &[], 100_000_000)
                .unwrap()
                .counters
                .cycles
        };
        let base = run_cycles(&build(0));
        let with_filler = run_cycles(&build(8));
        let t = TimingModel::default();
        let raw_filler_cost = 8 * 8192 * t.int_alu as u64 / 64;
        let actual_increase = with_filler.saturating_sub(base);
        assert!(
            actual_increase < raw_filler_cost / 2,
            "filler should hide under misses: +{actual_increase} vs raw {raw_filler_cost}"
        );
    }

    #[test]
    fn icache_counts_accumulate() {
        let mut b = AsmBuilder::new("i");
        let top = b.new_label();
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rcx),
            src: Operand::Imm(1000),
            width: Width::W64,
        });
        b.bind(top);
        b.emit(Inst::Alu {
            op: AluOp::Sub,
            dst: Operand::Reg(Reg::Rcx),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        b.emit(Inst::Jcc {
            cc: Cc::Ne,
            target: top,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let out = run_module(&m, &[]);
        assert!(out.counters.icache_accesses >= out.counters.instructions_retired);
        // Tiny loop: essentially no misses after warm-up.
        assert!(out.counters.icache_misses < 5);
    }

    /// Runs a single two-operand ALU op with both inputs in registers.
    fn run_alu(op: AluOp, width: Width, l: u64, r: u64) -> u64 {
        let mut b = AsmBuilder::new("alu");
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Reg(Reg::Rdi),
            width: Width::W64,
        });
        b.emit(Inst::Alu {
            op,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Reg(Reg::Rsi),
            width,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        run_module(&m, &[l, r]).ret
    }

    #[test]
    fn rotates_match_reference_for_every_count_and_width() {
        // Sweep counts 0..=bits (inclusive: `bits` must wrap to the
        // identity, the historical rotate-by-zero/by-width bug).
        let patterns = [
            0u64,
            1,
            0x8000_0000_0000_0001,
            0xDEAD_BEEF_CAFE_F00D,
            u64::MAX,
        ];
        for width in [Width::W8, Width::W16, Width::W32, Width::W64] {
            let bits = (width.bytes() * 8) as u32;
            for &p in &patterns {
                let lm = p & width.mask();
                for count in 0..=bits {
                    let c = count % bits;
                    // Reference rotate on the masked value.
                    let want_l = if c == 0 {
                        lm
                    } else {
                        ((lm << c) | (lm >> (bits - c))) & width.mask()
                    };
                    let want_r = if c == 0 {
                        lm
                    } else {
                        ((lm >> c) | (lm << (bits - c))) & width.mask()
                    };
                    // Sub-width writes keep the destination's upper bits
                    // (x86 partial-register semantics), so compare masked.
                    assert_eq!(
                        run_alu(AluOp::Rol, width, p, count as u64) & width.mask(),
                        want_l,
                        "rol {width:?} {p:#x} by {count}"
                    );
                    assert_eq!(
                        run_alu(AluOp::Ror, width, p, count as u64) & width.mask(),
                        want_r,
                        "ror {width:?} {p:#x} by {count}"
                    );
                }
            }
        }
    }

    /// Runs a single float ALU op with both inputs passed as bit patterns
    /// (staged through memory — the ISA has no GPR↔XMM move).
    fn run_aluf(op: FAluOp, prec: FPrec, l: u64, r: u64) -> u64 {
        use wasmperf_isa::inst::FOperand;
        use wasmperf_isa::Xmm;
        let slot = |disp: i64| MemRef {
            base: None,
            index: None,
            disp,
        };
        let mut b = AsmBuilder::new("aluf");
        b.emit(Inst::Mov {
            dst: Operand::Mem(slot(16)),
            src: Operand::Reg(Reg::Rdi),
            width: Width::W64,
        });
        b.emit(Inst::Mov {
            dst: Operand::Mem(slot(24)),
            src: Operand::Reg(Reg::Rsi),
            width: Width::W64,
        });
        b.emit(Inst::MovF {
            dst: FOperand::Xmm(Xmm(0)),
            src: FOperand::Mem(slot(16)),
            prec,
        });
        b.emit(Inst::AluF {
            op,
            dst: Xmm(0),
            src: FOperand::Mem(slot(24)),
            prec,
        });
        b.emit(Inst::MovF {
            dst: FOperand::Mem(slot(32)),
            src: FOperand::Xmm(Xmm(0)),
            prec,
        });
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Mem(slot(32)),
            width: match prec {
                FPrec::F32 => Width::W32,
                FPrec::F64 => Width::W64,
            },
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        run_module(&m, &[l, r]).ret
    }

    #[test]
    fn float_min_max_have_wasm_semantics() {
        // NaN propagates from either operand (bare `minsd` would instead
        // return the second operand).
        let nan = f64::NAN.to_bits();
        let one = 1.0f64.to_bits();
        assert!(f64::from_bits(run_aluf(FAluOp::Min, FPrec::F64, nan, one)).is_nan());
        assert!(f64::from_bits(run_aluf(FAluOp::Min, FPrec::F64, one, nan)).is_nan());
        assert!(f64::from_bits(run_aluf(FAluOp::Max, FPrec::F64, nan, one)).is_nan());
        assert!(f64::from_bits(run_aluf(FAluOp::Max, FPrec::F64, one, nan)).is_nan());
        // -0 < +0.
        let pz = 0.0f64.to_bits();
        let nz = (-0.0f64).to_bits();
        assert_eq!(run_aluf(FAluOp::Min, FPrec::F64, pz, nz), nz);
        assert_eq!(run_aluf(FAluOp::Max, FPrec::F64, nz, pz), pz);
        // Same at f32 precision.
        let nan32 = f32::NAN.to_bits() as u64;
        let two32 = 2.0f32.to_bits() as u64;
        assert!(f32::from_bits(run_aluf(FAluOp::Min, FPrec::F32, two32, nan32) as u32).is_nan());
        assert_eq!(
            run_aluf(
                FAluOp::Max,
                FPrec::F32,
                (-0.0f32).to_bits() as u64,
                0.0f32.to_bits() as u64
            ),
            0.0f32.to_bits() as u64
        );
    }

    #[test]
    fn dcache_access_straddling_a_line_probes_both_lines() {
        // One 8-byte store; the only difference is whether it crosses a
        // 64-byte line boundary (60..=67 does, 32..=39 does not).
        let store_at = |addr: i64| {
            let mut b = AsmBuilder::new("store");
            b.emit(Inst::Mov {
                dst: Operand::Mem(MemRef::abs(addr)),
                src: Operand::Imm(7),
                width: Width::W64,
            });
            b.emit(Inst::Ret);
            let m = module_of(vec![b.finish()]);
            run_module(&m, &[]).counters
        };
        let line = Cache::l1().line_bytes() as i64;
        let aligned = store_at(line / 2);
        let straddling = store_at(line - 4);
        assert_eq!(straddling.dcache_accesses, aligned.dcache_accesses + 1);
        assert_eq!(straddling.dcache_misses, aligned.dcache_misses + 1);
        // Retired-event counts are unaffected: it is still one store.
        assert_eq!(straddling.stores_retired, aligned.stores_retired);
        assert_eq!(straddling.loads_retired, aligned.loads_retired);
    }

    /// A two-function program with a loop, calls, memory RMW traffic, and
    /// conditional branches — enough to exercise every accounting path.
    fn call_loop_module() -> Module {
        let mut callee = AsmBuilder::new("addmem");
        callee.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Mem(MemRef::abs(64)),
            src: Operand::Reg(Reg::Rdi),
            width: Width::W64,
        });
        callee.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Mem(MemRef::abs(64)),
            width: Width::W64,
        });
        callee.emit(Inst::Ret);

        let mut b = AsmBuilder::new("main");
        let top = b.new_label();
        b.bind(top);
        b.emit(Inst::Call { target: FuncId(1) });
        b.emit(Inst::Alu {
            op: AluOp::Sub,
            dst: Operand::Reg(Reg::Rdi),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        b.emit(Inst::Jcc {
            cc: Cc::Ne,
            target: top,
        });
        b.emit(Inst::Ret);
        module_of(vec![b.finish(), callee.finish()])
    }

    /// Runs `m` under `mode` and returns the full observable outcome.
    fn observe_mode(
        m: &Module,
        mode: ExecMode,
        args: &[u64],
        fuel: u64,
    ) -> (Result<(u64, Option<i32>), ExecError>, PerfCounters) {
        let mut machine = Machine::new(m, NullHost);
        machine.set_exec_mode(mode);
        let res = machine
            .run(FuncId(0), args, fuel)
            .map(|o| (o.ret, o.exit_code));
        (res, machine.counters())
    }

    /// Runs `m` under the legacy reference and the threaded engine,
    /// requires identical observables, and returns the legacy outcome.
    fn observe_both(
        m: &Module,
        args: &[u64],
        fuel: u64,
    ) -> (Result<(u64, Option<i32>), ExecError>, PerfCounters) {
        let legacy = observe_mode(m, ExecMode::Legacy, args, fuel);
        assert_eq!(
            observe_mode(m, ExecMode::Threaded, args, fuel),
            legacy,
            "fuel {fuel}"
        );
        legacy
    }

    #[test]
    fn all_exec_modes_agree_exactly() {
        let m = call_loop_module();
        let (res, _) = observe_both(&m, &[100], 1_000_000);
        assert_eq!(res.expect("runs").0, 5050);
    }

    #[test]
    fn out_of_fuel_location_and_counters_match_across_modes() {
        // Fuel runs out mid-superblock in the threaded engine; the trap
        // must still name the exact instruction the legacy path reports.
        let m = call_loop_module();
        for fuel in [0, 1, 7, 100, 1234] {
            let (res, _) = observe_both(&m, &[u64::MAX], fuel);
            assert_eq!(res.unwrap_err().kind, TrapKind::OutOfFuel);
        }
    }

    /// A counted loop whose `[cmp, jcc, add, jmp]` body merges into a
    /// single superblock with a mid-superblock side exit — the shape where
    /// batched fuel charging without rollback would misreport out-of-fuel
    /// locations.
    fn superblock_loop_module() -> Module {
        let mut b = AsmBuilder::new("main");
        let top = b.new_label();
        let done = b.new_label();
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(0),
            width: Width::W64,
        });
        b.bind(top);
        b.emit(Inst::Cmp {
            lhs: Operand::Reg(Reg::Rax),
            rhs: Operand::Reg(Reg::Rdi),
            width: Width::W64,
        });
        b.emit(Inst::Jcc {
            cc: Cc::E,
            target: done,
        });
        b.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        b.emit(Inst::Jmp { target: top });
        b.bind(done);
        b.emit(Inst::Call { target: FuncId(1) });
        b.emit(Inst::Ret);

        let mut callee = AsmBuilder::new("bump");
        callee.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(7),
            width: Width::W64,
        });
        callee.emit(Inst::Ret);
        module_of(vec![b.finish(), callee.finish()])
    }

    #[test]
    fn fuel_exhaustion_at_every_offset_matches_across_superblock_seams() {
        // Regression test for fuel/trap accounting at superblock seams:
        // exhaust fuel at *every* offset of a run whose hot loop is one
        // merged superblock with a taken side exit, and require the exact
        // legacy trap location and counters from the threaded tier. This
        // fails if it forgets to roll back the unexecuted superblock
        // tail on side exits (fuel consumed would outrun instructions
        // retired, reporting out-of-fuel early and at the wrong pc).
        for m in [superblock_loop_module(), call_loop_module()] {
            let args = &[6u64];
            let (full_res, full_ctr) = observe_mode(&m, ExecMode::Legacy, args, u64::MAX);
            let total = full_ctr.instructions_retired;
            assert!(full_res.is_ok());
            assert!(total > 12, "sweep must cross a superblock boundary");
            for fuel in 0..=total {
                let (leg_res, leg_ctr) = observe_both(&m, args, fuel);
                if fuel < total {
                    let err = leg_res.as_ref().unwrap_err();
                    assert_eq!(err.kind, TrapKind::OutOfFuel);
                    // The legacy trap pc is the exact next retiring
                    // instruction: exactly `fuel` instructions retired.
                    assert_eq!(leg_ctr.instructions_retired, fuel);
                } else {
                    assert_eq!(leg_res, full_res);
                }
            }
        }
    }

    #[test]
    fn threaded_abort_paths_match_legacy() {
        // Jcc taken to a label bound at the function end: control falls
        // off the end, which the threaded tier maps through its NO_SB
        // sentinel. The abort location and counters must match legacy.
        let mut b = AsmBuilder::new("main");
        let end = b.new_label();
        b.emit(Inst::Cmp {
            lhs: Operand::Reg(Reg::Rdi),
            rhs: Operand::Imm(0),
            width: Width::W64,
        });
        b.emit(Inst::Jcc {
            cc: Cc::E,
            target: end,
        });
        b.emit(Inst::Ret);
        b.bind(end);
        let m = module_of(vec![b.finish()]);
        let (leg_res, _) = observe_both(&m, &[0], 1000);
        let err = leg_res.as_ref().unwrap_err();
        assert_eq!(err.kind, TrapKind::Abort);
        assert_eq!(err.pc, 3);
    }

    #[test]
    fn threaded_trap_mid_superblock_matches_legacy() {
        // An explicit trap after pure ops inside a merged superblock: the
        // batched tier must have fully applied the preceding pure run's
        // accounting before the trap surfaces.
        let mut b = AsmBuilder::new("main");
        let l = b.new_label();
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(3),
            width: Width::W64,
        });
        b.emit(Inst::Jmp { target: l });
        b.bind(l);
        b.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(4),
            width: Width::W64,
        });
        b.emit(Inst::Trap {
            kind: TrapKind::Unreachable,
        });
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let (leg_res, _) = observe_both(&m, &[], 1000);
        let err = leg_res.as_ref().unwrap_err();
        assert_eq!(err.kind, TrapKind::Unreachable);
        assert_eq!(err.pc, 3);
    }

    #[test]
    fn every_variant_agrees_across_modes() {
        // The predecode tests build a module with one of every
        // instruction; run it under both modes and require identical
        // observables, whatever they are.
        let m = crate::predecode::tests::every_variant_module();
        let _ = observe_both(&m, &[1, 2], 100_000);
    }
}
