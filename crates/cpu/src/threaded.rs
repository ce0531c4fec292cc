//! Superblock formation over the predecoded micro-op stream.
//!
//! [`Predecoded`] lowers each function once into flat micro-ops split into
//! basic blocks. This module builds the threaded engine's program
//! representation from that stream: basic blocks are merged into
//! **superblocks** — single-entry, multiple-exit chains of blocks joined
//! across conditional fall-through edges and single-entry unconditional
//! jumps — and each superblock is flattened into a contiguous run of
//! [`TOp`]s with pre-resolved *superblock* successors, ready for
//! function-pointer dispatch (`machine.rs`, `ExecMode::Threaded`).
//!
//! Formation rules (also documented in docs/PERFORMANCE.md): block `B` is
//! appended to the chain currently ending in block `A` iff control can reach
//! `B` **only** through that seam:
//!
//! - `A` ends with `jcc` and `B` is its fall-through successor, and no
//!   branch anywhere in the function targets `B` (the `jcc` becomes a
//!   mid-superblock side exit); or
//! - `A` ends with `jmp B`, exactly one branch in the function targets `B`
//!   (that `jmp`), and `B`'s physical predecessor cannot fall into it.
//!
//! `B` must additionally not be the function entry (callable from anywhere),
//! not a return site (the block after a `call` is re-entered by `ret`), and
//! not already part of a chain (which also terminates loops: a back edge
//! targets its own chain's head). Every control-transfer destination that
//! survives these rules is therefore a superblock *head*, which is what lets
//! the executor charge fuel for a whole superblock on entry and roll back
//! the unexecuted tail exactly at side exits.
//!
//! Each superblock is further partitioned into [`Seg`]ments: maximal runs of
//! **pure** micro-ops — infallible, register/immediate-only, non-control
//! operations — alternating with single *complex* ops (anything that can
//! trap, touch the D-cache, branch, or call the host). A pure run's fuel,
//! issue-cost, and instruction-fetch accounting can be applied in one shot
//! with bit-exact results (see the proofs on [`Seg::Pure`]), which is where
//! the threaded tier's batching happens; complex ops keep the legacy
//! per-instruction accounting so trap-time observables stay identical.

use crate::predecode::{FuncPre, MOp, Predecoded};
use wasmperf_isa::inst::FOperand;
use wasmperf_isa::Operand;

/// Sentinel superblock id: "no successor" — for branch targets bound to the
/// function's end (the executor raises the same "fell off end" abort the
/// legacy loop produces) and for superblocks whose terminal op never falls
/// through.
pub const NO_SB: u32 = u32::MAX;

/// One micro-op in a flattened superblock: the [`crate::predecode::UOp`]
/// payload plus everything the threaded dispatch loop and its handlers need
/// without consulting the original program order.
#[derive(Debug, Clone)]
pub struct TOp {
    /// Original instruction index within the function (trap locations,
    /// return addresses, and shadow-stack frames stay in original indices
    /// so all execution tiers report identical observables).
    pub orig_pc: u32,
    /// Function this op belongs to (handlers push call frames).
    pub func: u32,
    /// Code address of the instruction.
    pub addr: u64,
    /// Address of the last encoded byte.
    pub last_byte: u64,
    /// Whether the fetch needs a second I-cache probe.
    pub straddles: bool,
    /// `jmp` whose target block is laid out immediately after it in the
    /// same superblock (the merged unconditional edge): dispatches as
    /// fall-through.
    pub merged_jmp: bool,
    /// Eligible for batched accounting (see [`is_pure`]).
    pub pure: bool,
    /// Issue cost in 1/64-cycle fixed-point units.
    pub cost: u32,
    /// Ops remaining in this superblock after this one. A side exit taken
    /// here under batched fuel rolls `sb_tail` units back, so fuel consumed
    /// always equals instructions retired at every superblock entry.
    pub sb_tail: u32,
    /// For `jcc`/unmerged `jmp`: the destination superblock ([`NO_SB`] when
    /// the label binds to the function end).
    pub target_sb: u32,
    /// The operation (branch targets inside are still original indices;
    /// the threaded loop uses [`TOp::target_sb`] instead).
    pub op: MOp,
}

/// A dispatch segment of a superblock.
#[derive(Debug, Clone)]
pub enum Seg {
    /// A maximal run `tops[lo..hi]` of pure ops whose accounting is applied
    /// in one shot. Exactness arguments:
    ///
    /// - **Issue cost**: per-op absorption consumes stall credit until it
    ///   runs out; over a run that adds no new credit (pure ops never probe
    ///   the D-cache) the per-op sequence telescopes to
    ///   `min(total_cost, credit)` — see `timing::absorb`.
    /// - **Fetch**: the run is physically contiguous (block seams end with
    ///   control ops, which are complex), so fetch lines are non-decreasing
    ///   and a repeated line is always *immediately* repeated. Re-accessing
    ///   the just-touched line is a guaranteed hit whose LRU update is a
    ///   no-op, so only the `probes` at line transitions are performed for
    ///   real; the remaining `fetches` just bump the access counter.
    Pure {
        /// First op index (into [`FuncThreaded::tops`]).
        lo: u32,
        /// One past the last op index.
        hi: u32,
        /// Sum of issue costs, 1/64-cycle fixed point.
        cost_fp: u64,
        /// Total I-cache accesses the per-op path would perform
        /// (one per op plus one per straddling op).
        fetches: u64,
        /// Range into [`FuncThreaded::probes`]: the fetch addresses at
        /// line transitions, probed for real (counting and charging
        /// misses, updating LRU state).
        probe_lo: u32,
        /// End of the probe range.
        probe_hi: u32,
    },
    /// A single op executed with exact per-instruction accounting: anything
    /// that can trap, access memory, transfer control, or call the host.
    Complex {
        /// Op index into [`FuncThreaded::tops`].
        idx: u32,
    },
}

/// One superblock: a contiguous run of [`TOp`]s and its segment partition.
#[derive(Debug, Clone)]
pub struct SuperBlock {
    /// First op (into [`FuncThreaded::tops`]).
    pub op_lo: u32,
    /// One past the last op.
    pub op_hi: u32,
    /// First segment (into [`FuncThreaded::segs`]).
    pub seg_lo: u32,
    /// One past the last segment.
    pub seg_hi: u32,
    /// Op count — the fuel charged on entry.
    pub len: u32,
    /// Superblock entered when the last op falls through, or [`NO_SB`] if
    /// falling through runs off the function end (same abort as legacy) or
    /// the terminal op never falls through (`jmp`/`call`/`ret`).
    pub fallthrough: u32,
}

/// One function's superblock program.
#[derive(Debug, Clone)]
pub struct FuncThreaded {
    /// Original instruction count (bounds for "fell off end" reporting).
    pub n: u32,
    /// Flattened ops, superblock by superblock (a permutation of the
    /// original instruction order).
    pub tops: Vec<TOp>,
    /// Segments, superblock by superblock.
    pub segs: Vec<Seg>,
    /// Real-probe fetch addresses referenced by [`Seg::Pure`].
    pub probes: Vec<u64>,
    /// The superblocks.
    pub sbs: Vec<SuperBlock>,
    /// `entry[orig_pc]` is the superblock led by that instruction, or
    /// [`NO_SB`]. Every address control can enter from outside a superblock
    /// (function entry, branch targets, return sites) maps to a head.
    pub entry: Vec<u32>,
}

/// The whole module in threaded-dispatch form.
#[derive(Debug, Clone)]
pub struct Threaded {
    /// Per-function programs, index-aligned with `module.funcs`.
    pub funcs: Vec<FuncThreaded>,
}

impl Threaded {
    /// Builds superblocks for every function of an already-predecoded
    /// module. `line_bytes` is the I-cache line size used to place the
    /// real fetch probes of pure segments.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two.
    pub fn new(pre: &Predecoded, line_bytes: u64) -> Threaded {
        assert!(line_bytes.is_power_of_two());
        Threaded {
            funcs: pre
                .funcs
                .iter()
                .enumerate()
                .map(|(fid, fp)| FuncThreaded::build(fp, fid as u32, line_bytes))
                .collect(),
        }
    }
}

/// True when the op can be accounted for in a batched [`Seg::Pure`] run:
/// it cannot trap, cannot touch the D-cache (register/immediate operands
/// only), does not transfer control or consult the branch predictor, and
/// its only counter effect is one retired instruction plus its issue cost.
pub fn is_pure(op: &MOp) -> bool {
    fn ri(o: &Operand) -> bool {
        !matches!(o, Operand::Mem(_))
    }
    fn fx(o: &FOperand) -> bool {
        matches!(o, FOperand::Xmm(_))
    }
    match op {
        MOp::Mov { dst, src, .. } | MOp::Alu { dst, src, .. } => ri(dst) && ri(src),
        MOp::Movzx { src, .. }
        | MOp::Movsx { src, .. }
        | MOp::Imul { src, .. }
        | MOp::Imul3 { src, .. }
        | MOp::Lzcnt { src, .. }
        | MOp::Tzcnt { src, .. }
        | MOp::Popcnt { src, .. }
        | MOp::Cmov { src, .. }
        | MOp::CvtIntToF { src, .. } => ri(src),
        MOp::Neg { dst, .. } | MOp::Not { dst, .. } => ri(dst),
        MOp::Cmp { lhs, rhs, .. } | MOp::Test { lhs, rhs, .. } => ri(lhs) && ri(rhs),
        MOp::Lea { .. }
        | MOp::Cqo { .. }
        | MOp::Setcc { .. }
        | MOp::MovGprToXmm { .. }
        | MOp::MovXmmToGpr { .. }
        | MOp::Nop => true,
        MOp::MovF { dst, src, .. } => fx(dst) && fx(src),
        MOp::AluF { src, .. }
        | MOp::RoundF { src, .. }
        | MOp::AbsF { src, .. }
        | MOp::SqrtF { src, .. }
        | MOp::CvtFToF { src, .. } => fx(src),
        MOp::Ucomis { rhs, .. } => fx(rhs),
        // Div and float->int conversions trap on bad values; everything
        // below touches memory, control, or the host.
        MOp::Div { .. }
        | MOp::CvtFToInt { .. }
        | MOp::Jmp { .. }
        | MOp::Jcc { .. }
        | MOp::Call { .. }
        | MOp::CallIndirect { .. }
        | MOp::CallHost { .. }
        | MOp::Push { .. }
        | MOp::Pop { .. }
        | MOp::Ret
        | MOp::Trap { .. } => false,
    }
}

impl FuncThreaded {
    fn build(fp: &FuncPre, fid: u32, line_bytes: u64) -> FuncThreaded {
        let n = fp.uops.len();
        // Block starts, ascending.
        let mut starts = Vec::new();
        {
            let mut pc = 0;
            while pc < n {
                starts.push(pc);
                pc += fp.block_len[pc] as usize;
            }
        }
        let nb = starts.len();
        const NONE: usize = usize::MAX;
        let mut block_at = vec![NONE; n];
        for (bi, &s) in starts.iter().enumerate() {
            block_at[s] = bi;
        }

        // How many branches target each instruction (index n = "function
        // end" labels, which are legal targets).
        let mut tgt_count = vec![0u32; n + 1];
        for u in &fp.uops {
            if let MOp::Jmp { target } | MOp::Jcc { target, .. } = u.op {
                tgt_count[target as usize] += 1;
            }
        }
        // Leaders control re-enters from outside any chain.
        let mut ret_site = vec![false; n];
        let mut fall_into = vec![false; n];
        for &s in &starts {
            let len = fp.block_len[s] as usize;
            let next = s + len;
            if next < n {
                match fp.uops[s + len - 1].op {
                    MOp::Call { .. } | MOp::CallIndirect { .. } => ret_site[next] = true,
                    MOp::Jmp { .. } | MOp::Ret => {}
                    // `jcc` falls through; a plain terminal means the next
                    // instruction is a branch target and always falls in.
                    _ => fall_into[next] = true,
                }
            }
        }

        // Greedy chain formation in ascending block order. `assigned` also
        // terminates loops: a back edge targets its own chain's head.
        let mut assigned = vec![false; nb];
        let mut chains: Vec<Vec<usize>> = Vec::new();
        for head in 0..nb {
            if assigned[head] {
                continue;
            }
            assigned[head] = true;
            let mut chain = vec![head];
            let mut cur = head;
            loop {
                let s = starts[cur];
                let len = fp.block_len[s] as usize;
                let cand = match fp.uops[s + len - 1].op {
                    MOp::Jcc { .. } => {
                        let c = s + len;
                        // The fall-through successor's only other possible
                        // entries are branches (it is not a return site: its
                        // physical predecessor is this `jcc` block).
                        (c < n && tgt_count[c] == 0 && !ret_site[c]).then_some(c)
                    }
                    MOp::Jmp { target } => {
                        let c = target as usize;
                        (c < n && c != 0 && tgt_count[c] == 1 && !ret_site[c] && !fall_into[c])
                            .then_some(c)
                    }
                    _ => None,
                };
                let Some(c) = cand else { break };
                let cbi = block_at[c];
                debug_assert_ne!(cbi, NONE, "merge candidate must be a block leader");
                if assigned[cbi] {
                    break;
                }
                assigned[cbi] = true;
                chain.push(cbi);
                cur = cbi;
            }
            chains.push(chain);
        }

        // Which superblock each block landed in (heads and merged tails).
        let mut sb_of_block = vec![NO_SB; nb];
        for (ci, chain) in chains.iter().enumerate() {
            for &bi in chain {
                sb_of_block[bi] = ci as u32;
            }
        }
        let sb_of_pc = |pc: usize| -> u32 {
            if pc >= n {
                return NO_SB;
            }
            let bi = block_at[pc];
            debug_assert_ne!(bi, NONE, "control target must be a block leader");
            sb_of_block[bi]
        };

        // Flatten: ops, segments, probes, per-superblock metadata.
        let mut tops: Vec<TOp> = Vec::with_capacity(n);
        let mut segs: Vec<Seg> = Vec::new();
        let mut probes: Vec<u64> = Vec::new();
        let mut sbs: Vec<SuperBlock> = Vec::with_capacity(chains.len());
        let mut entry = vec![NO_SB; n];
        for (ci, chain) in chains.iter().enumerate() {
            let op_lo = tops.len() as u32;
            let seg_lo = segs.len() as u32;
            entry[starts[chain[0]]] = ci as u32;
            let total: usize = chain
                .iter()
                .map(|&bi| fp.block_len[starts[bi]] as usize)
                .sum();
            let mut pos = 0usize;
            for (k, &bi) in chain.iter().enumerate() {
                let s = starts[bi];
                let len = fp.block_len[s] as usize;
                for pc in s..s + len {
                    let u = &fp.uops[pc];
                    let (target_sb, merged_jmp) = match u.op {
                        MOp::Jmp { target } => {
                            let merged = pc == s + len - 1
                                && k + 1 < chain.len()
                                && starts[chain[k + 1]] == target as usize;
                            if merged {
                                (NO_SB, true)
                            } else {
                                (sb_of_pc(target as usize), false)
                            }
                        }
                        MOp::Jcc { target, .. } => (sb_of_pc(target as usize), false),
                        _ => (NO_SB, false),
                    };
                    tops.push(TOp {
                        orig_pc: pc as u32,
                        func: fid,
                        addr: u.addr,
                        last_byte: u.last_byte,
                        straddles: u.straddles,
                        merged_jmp,
                        pure: is_pure(&u.op),
                        cost: u.cost,
                        sb_tail: (total - 1 - pos) as u32,
                        target_sb,
                        op: u.op,
                    });
                    pos += 1;
                }
            }

            // Segment the superblock's ops.
            let mut i = op_lo as usize;
            while i < tops.len() {
                if !tops[i].pure {
                    segs.push(Seg::Complex { idx: i as u32 });
                    i += 1;
                    continue;
                }
                let lo = i as u32;
                let probe_lo = probes.len() as u32;
                let mut cost_fp = 0u64;
                let mut fetches = 0u64;
                let mut prev_line = u64::MAX;
                while i < tops.len() && tops[i].pure {
                    let t = &tops[i];
                    cost_fp += t.cost as u64;
                    fetches += 1 + t.straddles as u64;
                    let l0 = t.addr / line_bytes;
                    if l0 != prev_line {
                        probes.push(t.addr);
                        prev_line = l0;
                    }
                    if t.straddles {
                        let l1 = t.last_byte / line_bytes;
                        if l1 != prev_line {
                            probes.push(t.last_byte);
                            prev_line = l1;
                        }
                    }
                    i += 1;
                }
                segs.push(Seg::Pure {
                    lo,
                    hi: i as u32,
                    cost_fp,
                    fetches,
                    probe_lo,
                    probe_hi: probes.len() as u32,
                });
            }

            // Fall-through successor of the chain's last block.
            let last_s = starts[*chain.last().expect("chains are non-empty")];
            let last_len = fp.block_len[last_s] as usize;
            let fallthrough = match fp.uops[last_s + last_len - 1].op {
                // These never fall through (an unmerged terminal `jmp`
                // always redirects; calls re-enter via `ret`).
                MOp::Jmp { .. } | MOp::Ret | MOp::Call { .. } | MOp::CallIndirect { .. } => NO_SB,
                _ => sb_of_pc(last_s + last_len),
            };
            sbs.push(SuperBlock {
                op_lo,
                op_hi: tops.len() as u32,
                seg_lo,
                seg_hi: segs.len() as u32,
                len: total as u32,
                fallthrough,
            });
        }

        FuncThreaded {
            n: n as u32,
            tops,
            segs,
            probes,
            sbs,
            entry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predecode::Predecoded;
    use crate::timing::TimingModel;
    use wasmperf_isa::{
        AluOp, AsmBuilder, Cc, FuncId, Function, Inst, Module, Operand, Reg, Width,
    };

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

    fn threaded(m: &Module) -> Threaded {
        let pre = Predecoded::new(m, &TimingModel::default(), 64);
        Threaded::new(&pre, 64)
    }

    /// `mov; loop { cmp; jcc exit; add; jmp loop }; ret` — the canonical
    /// counted loop.
    fn loop_module() -> Module {
        let mut b = AsmBuilder::new("main");
        let head = b.new_label();
        let exit = b.new_label();
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(0),
            width: Width::W64,
        });
        b.bind(head);
        b.emit(Inst::Cmp {
            lhs: Operand::Reg(Reg::Rax),
            rhs: Operand::Imm(10),
            width: Width::W64,
        });
        b.emit(Inst::Jcc {
            cc: Cc::E,
            target: exit,
        });
        b.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        b.emit(Inst::Jmp { target: head });
        b.bind(exit);
        b.emit(Inst::Ret);
        module_of(vec![b.finish()])
    }

    #[test]
    fn tops_are_a_permutation_of_the_instruction_stream() {
        for m in [loop_module(), jmp_chain_module()] {
            let th = threaded(&m);
            for (f, tf) in m.funcs.iter().zip(&th.funcs) {
                assert_eq!(tf.tops.len(), f.insts.len());
                let mut seen = vec![false; f.insts.len()];
                for t in &tf.tops {
                    assert!(!seen[t.orig_pc as usize], "duplicate op");
                    seen[t.orig_pc as usize] = true;
                }
                assert!(seen.iter().all(|&s| s), "missing op");
                // Superblocks tile the flat array.
                let mut op = 0;
                let mut seg = 0;
                for sb in &tf.sbs {
                    assert_eq!(sb.op_lo, op);
                    assert_eq!(sb.seg_lo, seg);
                    assert_eq!(sb.op_hi - sb.op_lo, sb.len);
                    op = sb.op_hi;
                    seg = sb.seg_hi;
                }
                assert_eq!(op as usize, tf.tops.len());
                assert_eq!(seg as usize, tf.segs.len());
            }
        }
    }

    #[test]
    fn loop_body_forms_one_superblock() {
        let m = loop_module();
        let th = threaded(&m);
        let tf = &th.funcs[0];
        // Blocks: [mov], [cmp, jcc], [add, jmp], [ret]. The jcc fall-through
        // edge merges the body into the loop head; the back edge stays a
        // side exit to its own head.
        assert_eq!(tf.sbs.len(), 3, "{:?}", tf.sbs);
        let loop_sb = tf.entry[1];
        assert_ne!(loop_sb, NO_SB);
        let sb = &tf.sbs[loop_sb as usize];
        assert_eq!(sb.len, 4, "cmp+jcc+add+jmp merged");
        let ops: Vec<u32> = tf.tops[sb.op_lo as usize..sb.op_hi as usize]
            .iter()
            .map(|t| t.orig_pc)
            .collect();
        assert_eq!(ops, vec![1, 2, 3, 4]);
        // The back-edge jmp targets this superblock's own head.
        let jmp = &tf.tops[sb.op_hi as usize - 1];
        assert!(matches!(jmp.op, MOp::Jmp { .. }));
        assert!(!jmp.merged_jmp);
        assert_eq!(jmp.target_sb, loop_sb);
        // The jcc exits mid-superblock with a rollback tail of 2 (add, jmp).
        let jcc = &tf.tops[sb.op_lo as usize + 1];
        assert!(matches!(jcc.op, MOp::Jcc { .. }));
        assert_eq!(jcc.sb_tail, 2);
        assert_eq!(jcc.target_sb, tf.entry[5]);
        // The entry superblock falls through into the loop.
        assert_eq!(tf.sbs[tf.entry[0] as usize].fallthrough, loop_sb);
    }

    /// `mov; jmp L; L: add; ret` — a single-entry unconditional edge.
    fn jmp_chain_module() -> Module {
        let mut b = AsmBuilder::new("main");
        let l = b.new_label();
        b.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        b.emit(Inst::Jmp { target: l });
        b.bind(l);
        b.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(2),
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        module_of(vec![b.finish()])
    }

    #[test]
    fn single_entry_jmp_edges_merge() {
        let m = jmp_chain_module();
        let th = threaded(&m);
        let tf = &th.funcs[0];
        assert_eq!(tf.sbs.len(), 1, "{:?}", tf.sbs);
        assert_eq!(tf.sbs[0].len, 4);
        let jmp = &tf.tops[1];
        assert!(matches!(jmp.op, MOp::Jmp { .. }));
        assert!(
            jmp.merged_jmp,
            "unique unconditional edge dispatches inline"
        );
    }

    #[test]
    fn control_targets_resolve_to_superblock_heads() {
        for m in [loop_module(), jmp_chain_module()] {
            let th = threaded(&m);
            for tf in &th.funcs {
                for t in &tf.tops {
                    let target = match t.op {
                        MOp::Jmp { target } if !t.merged_jmp => target,
                        MOp::Jcc { target, .. } => target,
                        _ => continue,
                    };
                    if (target as usize) < tf.n as usize {
                        let sb = &tf.sbs[t.target_sb as usize];
                        assert_eq!(
                            tf.tops[sb.op_lo as usize].orig_pc, target,
                            "branch target must lead its superblock"
                        );
                        assert_eq!(tf.entry[target as usize], t.target_sb);
                    } else {
                        assert_eq!(t.target_sb, NO_SB);
                    }
                }
                for sb in &tf.sbs {
                    if sb.fallthrough != NO_SB {
                        let dst = &tf.sbs[sb.fallthrough as usize];
                        let last = &tf.tops[sb.op_hi as usize - 1];
                        assert_eq!(
                            tf.tops[dst.op_lo as usize].orig_pc,
                            last.orig_pc + 1,
                            "fallthrough must enter the next instruction's head"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pure_segments_account_exactly() {
        for m in [loop_module(), jmp_chain_module()] {
            let th = threaded(&m);
            for tf in &th.funcs {
                for seg in &tf.segs {
                    let Seg::Pure {
                        lo,
                        hi,
                        cost_fp,
                        fetches,
                        probe_lo,
                        probe_hi,
                    } = *seg
                    else {
                        continue;
                    };
                    let ops = &tf.tops[lo as usize..hi as usize];
                    assert!(!ops.is_empty());
                    assert!(ops.iter().all(|t| t.pure && is_pure(&t.op)));
                    assert_eq!(cost_fp, ops.iter().map(|t| t.cost as u64).sum::<u64>());
                    assert_eq!(
                        fetches,
                        ops.iter().map(|t| 1 + t.straddles as u64).sum::<u64>()
                    );
                    let probes = &tf.probes[probe_lo as usize..probe_hi as usize];
                    assert_eq!(probes[0], ops[0].addr, "first fetch always probed");
                    // Probe lines strictly increase: one probe per distinct
                    // line of the (monotone) fetch stream.
                    for w in probes.windows(2) {
                        assert!(w[0] / 64 < w[1] / 64);
                    }
                    let mut lines: Vec<u64> = ops
                        .iter()
                        .flat_map(|t| {
                            let mut v = vec![t.addr / 64];
                            if t.straddles {
                                v.push(t.last_byte / 64);
                            }
                            v
                        })
                        .collect();
                    lines.dedup();
                    assert_eq!(lines.len(), probes.len());
                }
            }
        }
    }

    #[test]
    fn return_sites_and_entries_stay_superblock_heads() {
        // call main→callee: the instruction after the call must head its
        // own superblock (ret re-enters there), as must every entry.
        let mut b = AsmBuilder::new("main");
        b.emit(Inst::Call { target: FuncId(1) });
        b.emit(Inst::Alu {
            op: AluOp::Add,
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(1),
            width: Width::W64,
        });
        b.emit(Inst::Ret);
        let mut c = AsmBuilder::new("callee");
        c.emit(Inst::Mov {
            dst: Operand::Reg(Reg::Rax),
            src: Operand::Imm(41),
            width: Width::W64,
        });
        c.emit(Inst::Ret);
        let m = module_of(vec![b.finish(), c.finish()]);
        let th = threaded(&m);
        assert_ne!(th.funcs[0].entry[0], NO_SB);
        assert_ne!(th.funcs[0].entry[1], NO_SB, "return site is a head");
        assert_ne!(th.funcs[1].entry[0], NO_SB);
    }
}
