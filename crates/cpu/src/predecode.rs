//! Predecoded micro-op representation of a [`Module`].
//!
//! The legacy interpreter re-derives, for *every retired instruction*, the
//! instruction class, the issue cost, the encoded length (which allocates a
//! register-list `Vec` per call), the I-cache line-straddle test, and — for
//! branches — the label resolution. All of that is a pure function of the
//! module and the timing model, so [`Predecoded`] computes it exactly once
//! per function at machine-construction time and bakes the results into a
//! flat stream of [`UOp`]s.
//!
//! The stream is additionally partitioned into basic blocks
//! ([`FuncPre::block_len`]). Block boundaries fall after every
//! control-transfer instruction ([`Inst::ends_block`]) and before every
//! branch target, so control only ever enters a block at its leader;
//! [`crate::threaded`] merges these blocks into the superblocks the fast
//! loop dispatches over.
//!
//! Predecoding is a *representation* change, not a semantics change: the
//! threaded executor built on this stream performs the same cache probes,
//! counter updates, and architectural effects in the same order as the
//! legacy per-instruction path. `machine.rs` keeps both loops and the
//! differential tests hold them byte-identical.

use crate::timing::TimingModel;
use wasmperf_isa::inst::FOperand;
use wasmperf_isa::size::encoded_len;
use wasmperf_isa::{
    AluOp, Cc, FAluOp, FPrec, FuncId, Function, Inst, InstClass, MemRef, Module, Operand, Reg,
    RoundMode, TrapKind, Width, Xmm,
};

/// A micro-operation: one [`Inst`] with every run-loop-invariant datum
/// precomputed. Branch targets are resolved instruction indices.
#[derive(Debug, Clone)]
pub struct UOp {
    /// Code address of the instruction (as assigned by
    /// [`Module::assign_addresses`]).
    pub addr: u64,
    /// Address of the last encoded byte (`addr + encoded_len - 1`).
    pub last_byte: u64,
    /// Whether the encoding crosses an I-cache line boundary, i.e. the
    /// fetch needs a second cache probe.
    pub straddles: bool,
    /// Issue cost in 1/64-cycle fixed-point units.
    pub cost: u32,
    /// Counter classification.
    pub class: InstClass,
    /// The operation itself, with operand shapes pre-resolved.
    pub op: MOp,
}

/// [`Inst`] with branch labels replaced by resolved instruction indices.
///
/// All payloads are `Copy` (registers, immediates, [`MemRef`]s with their
/// displacement constants already folded), so dispatch never chases back
/// into the [`Module`].
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub enum MOp {
    Mov {
        dst: Operand,
        src: Operand,
        width: Width,
    },
    Movzx {
        dst: Reg,
        src: Operand,
        from: Width,
    },
    Movsx {
        dst: Reg,
        src: Operand,
        from: Width,
        to: Width,
    },
    Lea {
        dst: Reg,
        mem: MemRef,
        width: Width,
    },
    Alu {
        op: AluOp,
        dst: Operand,
        src: Operand,
        width: Width,
    },
    Neg {
        dst: Operand,
        width: Width,
    },
    Not {
        dst: Operand,
        width: Width,
    },
    Imul {
        dst: Reg,
        src: Operand,
        width: Width,
    },
    Imul3 {
        dst: Reg,
        src: Operand,
        imm: i64,
        width: Width,
    },
    Cqo {
        width: Width,
    },
    Div {
        src: Operand,
        signed: bool,
        width: Width,
    },
    Cmp {
        lhs: Operand,
        rhs: Operand,
        width: Width,
    },
    Test {
        lhs: Operand,
        rhs: Operand,
        width: Width,
    },
    Cmov {
        cc: Cc,
        dst: Reg,
        src: Operand,
        width: Width,
    },
    Setcc {
        cc: Cc,
        dst: Reg,
    },
    Lzcnt {
        dst: Reg,
        src: Operand,
        width: Width,
    },
    Tzcnt {
        dst: Reg,
        src: Operand,
        width: Width,
    },
    Popcnt {
        dst: Reg,
        src: Operand,
        width: Width,
    },
    /// `jmp` with the label resolved to an instruction index.
    Jmp {
        target: u32,
    },
    /// `jcc` with the label resolved to an instruction index.
    Jcc {
        cc: Cc,
        target: u32,
    },
    Call {
        target: FuncId,
    },
    CallIndirect {
        target: Operand,
    },
    CallHost {
        id: u32,
    },
    Push {
        src: Operand,
    },
    Pop {
        dst: Reg,
    },
    Ret,
    MovF {
        dst: FOperand,
        src: FOperand,
        prec: FPrec,
    },
    AluF {
        op: FAluOp,
        dst: Xmm,
        src: FOperand,
        prec: FPrec,
    },
    RoundF {
        dst: Xmm,
        src: FOperand,
        prec: FPrec,
        mode: RoundMode,
    },
    AbsF {
        dst: Xmm,
        src: FOperand,
        prec: FPrec,
    },
    SqrtF {
        dst: Xmm,
        src: FOperand,
        prec: FPrec,
    },
    Ucomis {
        lhs: Xmm,
        rhs: FOperand,
        prec: FPrec,
    },
    CvtIntToF {
        dst: Xmm,
        src: Operand,
        width: Width,
        prec: FPrec,
        unsigned: bool,
    },
    CvtFToInt {
        dst: Reg,
        src: FOperand,
        width: Width,
        prec: FPrec,
        unsigned: bool,
    },
    CvtFToF {
        dst: Xmm,
        src: FOperand,
        from: FPrec,
    },
    MovGprToXmm {
        dst: Xmm,
        src: Reg,
        width: Width,
    },
    MovXmmToGpr {
        dst: Reg,
        src: Xmm,
        width: Width,
    },
    Trap {
        kind: TrapKind,
    },
    Nop,
}

impl MOp {
    /// Lowers one instruction, resolving branch labels against `f`.
    ///
    /// # Panics
    ///
    /// Panics (like [`Function::resolve`]) if a branch references an
    /// unbound label; the legacy path would panic on first execution of
    /// that branch, predecode surfaces the malformed module at load time.
    fn lower(inst: &Inst, f: &Function) -> MOp {
        match *inst {
            Inst::Mov { dst, src, width } => MOp::Mov { dst, src, width },
            Inst::Movzx { dst, src, from } => MOp::Movzx { dst, src, from },
            Inst::Movsx { dst, src, from, to } => MOp::Movsx { dst, src, from, to },
            Inst::Lea { dst, mem, width } => MOp::Lea { dst, mem, width },
            Inst::Alu {
                op,
                dst,
                src,
                width,
            } => MOp::Alu {
                op,
                dst,
                src,
                width,
            },
            Inst::Neg { dst, width } => MOp::Neg { dst, width },
            Inst::Not { dst, width } => MOp::Not { dst, width },
            Inst::Imul { dst, src, width } => MOp::Imul { dst, src, width },
            Inst::Imul3 {
                dst,
                src,
                imm,
                width,
            } => MOp::Imul3 {
                dst,
                src,
                imm,
                width,
            },
            Inst::Cqo { width } => MOp::Cqo { width },
            Inst::Div { src, signed, width } => MOp::Div { src, signed, width },
            Inst::Cmp { lhs, rhs, width } => MOp::Cmp { lhs, rhs, width },
            Inst::Test { lhs, rhs, width } => MOp::Test { lhs, rhs, width },
            Inst::Cmov {
                cc,
                dst,
                src,
                width,
            } => MOp::Cmov {
                cc,
                dst,
                src,
                width,
            },
            Inst::Setcc { cc, dst } => MOp::Setcc { cc, dst },
            Inst::Lzcnt { dst, src, width } => MOp::Lzcnt { dst, src, width },
            Inst::Tzcnt { dst, src, width } => MOp::Tzcnt { dst, src, width },
            Inst::Popcnt { dst, src, width } => MOp::Popcnt { dst, src, width },
            Inst::Jmp { target } => MOp::Jmp {
                target: f.resolve(target) as u32,
            },
            Inst::Jcc { cc, target } => MOp::Jcc {
                cc,
                target: f.resolve(target) as u32,
            },
            Inst::Call { target } => MOp::Call { target },
            Inst::CallIndirect { target } => MOp::CallIndirect { target },
            Inst::CallHost { id } => MOp::CallHost { id },
            Inst::Push { src } => MOp::Push { src },
            Inst::Pop { dst } => MOp::Pop { dst },
            Inst::Ret => MOp::Ret,
            Inst::MovF { dst, src, prec } => MOp::MovF { dst, src, prec },
            Inst::AluF { op, dst, src, prec } => MOp::AluF { op, dst, src, prec },
            Inst::RoundF {
                dst,
                src,
                prec,
                mode,
            } => MOp::RoundF {
                dst,
                src,
                prec,
                mode,
            },
            Inst::AbsF { dst, src, prec } => MOp::AbsF { dst, src, prec },
            Inst::SqrtF { dst, src, prec } => MOp::SqrtF { dst, src, prec },
            Inst::Ucomis { lhs, rhs, prec } => MOp::Ucomis { lhs, rhs, prec },
            Inst::CvtIntToF {
                dst,
                src,
                width,
                prec,
                unsigned,
            } => MOp::CvtIntToF {
                dst,
                src,
                width,
                prec,
                unsigned,
            },
            Inst::CvtFToInt {
                dst,
                src,
                width,
                prec,
                unsigned,
            } => MOp::CvtFToInt {
                dst,
                src,
                width,
                prec,
                unsigned,
            },
            Inst::CvtFToF { dst, src, from } => MOp::CvtFToF { dst, src, from },
            Inst::MovGprToXmm { dst, src, width } => MOp::MovGprToXmm { dst, src, width },
            Inst::MovXmmToGpr { dst, src, width } => MOp::MovXmmToGpr { dst, src, width },
            Inst::Trap { kind } => MOp::Trap { kind },
            Inst::Nop => MOp::Nop,
        }
    }
}

/// One function's predecoded stream.
#[derive(Debug, Clone)]
pub struct FuncPre {
    /// Micro-ops, index-aligned with the function's instructions.
    pub uops: Vec<UOp>,
    /// `block_len[pc]` is the length of the basic block starting at `pc`
    /// when `pc` is a block leader, and 0 otherwise. The executor only
    /// consults leader entries: control always enters blocks at the top.
    pub block_len: Vec<u32>,
}

impl FuncPre {
    fn lower(f: &Function, timing: &TimingModel, line_bytes: u64) -> FuncPre {
        let n = f.insts.len();
        let mut uops = Vec::with_capacity(n);
        for (i, inst) in f.insts.iter().enumerate() {
            let addr = f.inst_addrs[i];
            let last_byte = addr + encoded_len(inst) as u64 - 1;
            let class = inst.class();
            uops.push(UOp {
                addr,
                last_byte,
                straddles: last_byte / line_bytes != addr / line_bytes,
                cost: timing.issue_cost(class),
                class,
                op: MOp::lower(inst, f),
            });
        }

        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (i, inst) in f.insts.iter().enumerate() {
            if inst.ends_block() && i + 1 < n {
                leader[i + 1] = true;
            }
            match inst {
                Inst::Jmp { target } | Inst::Jcc { target, .. } => {
                    // A label may legally bind to `n` (fall off the end);
                    // the executor's bounds check handles that case.
                    let t = f.resolve(*target);
                    if t < n {
                        leader[t] = true;
                    }
                }
                _ => {}
            }
        }
        let mut block_len = vec![0u32; n];
        let mut i = 0;
        while i < n {
            let mut j = i + 1;
            while j < n && !leader[j] {
                j += 1;
            }
            block_len[i] = (j - i) as u32;
            i = j;
        }
        FuncPre { uops, block_len }
    }
}

/// The predecoded form of a whole [`Module`] under one [`TimingModel`].
#[derive(Debug, Clone)]
pub struct Predecoded {
    /// Per-function streams, index-aligned with `module.funcs`.
    pub funcs: Vec<FuncPre>,
}

impl Predecoded {
    /// Lowers every function of `module`. `line_bytes` is the I-cache line
    /// size used to precompute fetch-straddle flags.
    ///
    /// # Panics
    ///
    /// Panics if the module's instruction addresses have not been assigned
    /// or a branch references an unbound label.
    pub fn new(module: &Module, timing: &TimingModel, line_bytes: u64) -> Predecoded {
        assert!(line_bytes.is_power_of_two());
        Predecoded {
            funcs: module
                .funcs
                .iter()
                .map(|f| FuncPre::lower(f, timing, line_bytes))
                .collect(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wasmperf_isa::AsmBuilder;

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

    /// One instance of every `Inst` variant, in a module that would also
    /// execute (labels bound, function ids valid). Shared with the machine
    /// tests' cross-mode differential.
    pub(crate) fn every_variant_module() -> Module {
        use wasmperf_isa::inst::FOperand::Xmm as FX;
        let mem = MemRef::base_disp(Reg::Rdi, 8);
        let mut b = AsmBuilder::new("all");
        let skip = b.new_label();
        let join = b.new_label();
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        b.emit(Inst::Movzx {
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rcx),
            from: Width::W8,
        });
        b.emit(Inst::Movsx {
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rcx),
            from: Width::W8,
            to: Width::W64,
        });
        b.emit(Inst::Lea {
            dst: Reg::Rax,
            mem,
            width: Width::W64,
        });
        b.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Mem(mem),
            src: Operand::Imm(1),
            width: Width::W32,
        });
        b.emit(Inst::Neg {
            dst: Operand::Reg(Reg::Rax),
            width: Width::W64,
        });
        b.emit(Inst::Not {
            dst: Operand::Reg(Reg::Rax),
            width: Width::W64,
        });
        b.emit(Inst::Imul {
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rcx),
            width: Width::W64,
        });
        b.emit(Inst::Imul3 {
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rcx),
            imm: 3,
            width: Width::W64,
        });
        b.emit(Inst::Cqo { width: Width::W64 });
        b.emit(Inst::Div {
            src: Operand::Reg(Reg::Rcx),
            signed: false,
            width: Width::W64,
        });
        b.emit(Inst::Cmp {
            lhs: Operand::Reg(Reg::Rax),
            rhs: Operand::Imm(0),
            width: Width::W64,
        });
        b.emit(Inst::Test {
            lhs: Operand::Reg(Reg::Rax),
            rhs: Operand::Reg(Reg::Rax),
            width: Width::W64,
        });
        b.emit(Inst::Cmov {
            cc: Cc::E,
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rcx),
            width: Width::W64,
        });
        b.emit(Inst::Setcc {
            cc: Cc::Ne,
            dst: Reg::Rax,
        });
        b.emit(Inst::Lzcnt {
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rcx),
            width: Width::W64,
        });
        b.emit(Inst::Tzcnt {
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rcx),
            width: Width::W64,
        });
        b.emit(Inst::Popcnt {
            dst: Reg::Rax,
            src: Operand::Reg(Reg::Rcx),
            width: Width::W64,
        });
        b.emit(Inst::Jmp { target: skip });
        b.bind(skip);
        b.emit(Inst::Jcc {
            cc: Cc::Ne,
            target: join,
        });
        b.emit(Inst::Call { target: FuncId(1) });
        b.emit(Inst::CallIndirect {
            target: Operand::Reg(Reg::Rcx),
        });
        b.emit(Inst::CallHost { id: 0 });
        b.bind(join);
        b.emit(Inst::Push {
            src: Operand::Reg(Reg::Rax),
        });
        b.emit(Inst::Pop { dst: Reg::Rax });
        b.emit(Inst::MovF {
            dst: FX(Xmm(0)),
            src: FX(Xmm(1)),
            prec: FPrec::F64,
        });
        b.emit(Inst::AluF {
            op: FAluOp::Mul,
            dst: Xmm(0),
            src: FX(Xmm(1)),
            prec: FPrec::F64,
        });
        b.emit(Inst::RoundF {
            dst: Xmm(0),
            src: FX(Xmm(1)),
            prec: FPrec::F64,
            mode: RoundMode::Nearest,
        });
        b.emit(Inst::AbsF {
            dst: Xmm(0),
            src: FX(Xmm(1)),
            prec: FPrec::F64,
        });
        b.emit(Inst::SqrtF {
            dst: Xmm(0),
            src: FX(Xmm(1)),
            prec: FPrec::F64,
        });
        b.emit(Inst::Ucomis {
            lhs: Xmm(0),
            rhs: FX(Xmm(1)),
            prec: FPrec::F64,
        });
        b.emit(Inst::CvtIntToF {
            dst: Xmm(0),
            src: Operand::Reg(Reg::Rax),
            width: Width::W64,
            prec: FPrec::F64,
            unsigned: false,
        });
        b.emit(Inst::CvtFToInt {
            dst: Reg::Rax,
            src: FX(Xmm(0)),
            width: Width::W64,
            prec: FPrec::F64,
            unsigned: false,
        });
        b.emit(Inst::CvtFToF {
            dst: Xmm(0),
            src: FX(Xmm(1)),
            from: FPrec::F32,
        });
        b.emit(Inst::MovGprToXmm {
            dst: Xmm(0),
            src: Reg::Rax,
            width: Width::W64,
        });
        b.emit(Inst::MovXmmToGpr {
            dst: Reg::Rax,
            src: Xmm(0),
            width: Width::W64,
        });
        b.emit(Inst::Trap {
            kind: TrapKind::Unreachable,
        });
        b.emit(Inst::Nop);
        b.emit(Inst::Ret);

        let mut callee = AsmBuilder::new("callee");
        callee.emit(Inst::Ret);
        module_of(vec![b.finish(), callee.finish()])
    }

    #[test]
    fn every_variant_lowers_with_exact_metadata() {
        let m = every_variant_module();
        let t = TimingModel::default();
        let pre = Predecoded::new(&m, &t, 64);
        assert_eq!(pre.funcs.len(), m.funcs.len());
        for (f, fp) in m.funcs.iter().zip(&pre.funcs) {
            assert_eq!(fp.uops.len(), f.insts.len());
            assert_eq!(fp.block_len.len(), f.insts.len());
            for (i, (inst, u)) in f.insts.iter().zip(&fp.uops).enumerate() {
                assert_eq!(u.addr, f.inst_addrs[i]);
                assert_eq!(u.last_byte, u.addr + encoded_len(inst) as u64 - 1);
                assert_eq!(u.straddles, u.last_byte / 64 != u.addr / 64);
                assert_eq!(u.class, inst.class());
                assert_eq!(u.cost, t.issue_cost(inst.class()));
            }
        }
    }

    #[test]
    fn branch_targets_resolve_to_bound_offsets() {
        let m = every_variant_module();
        let f = &m.funcs[0];
        let pre = Predecoded::new(&m, &TimingModel::default(), 64);
        for (i, u) in pre.funcs[0].uops.iter().enumerate() {
            match (&f.insts[i], &u.op) {
                (Inst::Jmp { target }, MOp::Jmp { target: t }) => {
                    assert_eq!(*t as usize, f.resolve(*target));
                }
                (Inst::Jcc { target, .. }, MOp::Jcc { target: t, .. }) => {
                    assert_eq!(*t as usize, f.resolve(*target));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn blocks_partition_the_function() {
        let m = every_variant_module();
        let pre = Predecoded::new(&m, &TimingModel::default(), 64);
        for fp in &pre.funcs {
            let n = fp.uops.len();
            let mut pc = 0;
            while pc < n {
                let len = fp.block_len[pc] as usize;
                assert!(len > 0, "leader at {pc} has zero length");
                // Interior instructions are not leaders.
                for k in pc + 1..pc + len {
                    assert_eq!(fp.block_len[k], 0, "interior {k} marked leader");
                }
                // Only the last instruction may end the block early.
                for k in pc..pc + len - 1 {
                    assert!(
                        !matches!(
                            fp.uops[k].op,
                            MOp::Jmp { .. }
                                | MOp::Jcc { .. }
                                | MOp::Call { .. }
                                | MOp::CallIndirect { .. }
                                | MOp::Ret
                        ),
                        "control-transfer uop {k} in block interior"
                    );
                }
                pc += len;
            }
            assert_eq!(pc, n, "blocks tile the function exactly");
        }
    }

    #[test]
    fn branch_targets_are_block_leaders() {
        let m = every_variant_module();
        let pre = Predecoded::new(&m, &TimingModel::default(), 64);
        for fp in &pre.funcs {
            for u in &fp.uops {
                let t = match u.op {
                    MOp::Jmp { target } => target as usize,
                    MOp::Jcc { target, .. } => target as usize,
                    _ => continue,
                };
                if t < fp.uops.len() {
                    assert!(fp.block_len[t] > 0, "branch target {t} is not a leader");
                }
            }
        }
    }

    #[test]
    fn straddle_flag_matches_address_arithmetic() {
        // Force a known layout: addresses are assigned from 0x1000 with
        // deterministic lengths, so at least one instruction in a long
        // straight-line function must straddle a 64-byte line, and its
        // flag must agree with a direct line-index comparison.
        let mut b = AsmBuilder::new("line");
        for i in 0..64 {
            b.emit(Inst::Mov {
                dst: Operand::Reg(Reg::Rax),
                src: Operand::Imm(i),
                width: Width::W64,
            });
        }
        b.emit(Inst::Ret);
        let m = module_of(vec![b.finish()]);
        let pre = Predecoded::new(&m, &TimingModel::default(), 64);
        let straddlers = pre.funcs[0].uops.iter().filter(|u| u.straddles).count();
        assert!(straddlers > 0, "long function must cross a line somewhere");
        for u in &pre.funcs[0].uops {
            assert_eq!(u.straddles, u.last_byte / 64 != u.addr / 64);
        }
    }
}
