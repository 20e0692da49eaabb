//! Binding of the repo's native PISA-like ISA ([`popk_isa::Insn`]) to
//! the micro-op boundary.
//!
//! This module is the single source of truth for how PISA opcodes map
//! onto the timing core's scheduling vocabulary (execution class,
//! Fig. 8 slice class, latency class, control kind) — the mapping the
//! pipeline's per-stage `match op` arms used to embed.

use crate::{CtrlKind, ExecClass, LatClass, RegList, Uop, UopInsn, UopMeta};
use popk_isa::{Insn, Op, OpClass, Reg, SliceClass};

impl Uop<Insn> {
    /// The value of source register `r`, if this instruction reads it.
    pub fn src_val(&self, r: Reg) -> Option<u32> {
        self.insn
            .uses()
            .iter()
            .position(|u| u == r)
            .map(|i| self.src_vals[i])
    }
}

fn reglist(args: popk_isa::ArgSet) -> RegList {
    let mut l = RegList::new();
    for r in args.iter() {
        l.push(r.index() as u8);
    }
    l
}

impl UopInsn for Insn {
    const NUM_REGS: usize = Reg::COUNT;

    fn meta(&self) -> UopMeta {
        let op = self.op();
        let class = match op.class() {
            OpClass::MulDiv => ExecClass::MulDiv,
            OpClass::Fp => match op {
                Op::AddS | Op::SubS | Op::CvtSW | Op::CvtWS => ExecClass::FpAdd,
                _ => ExecClass::FpLong,
            },
            OpClass::Sys => ExecClass::Sys,
            OpClass::Jump => match op {
                Op::J | Op::Jal => ExecClass::Front,
                _ => ExecClass::IntSliced, // jr/jalr read a register
            },
            _ => ExecClass::IntSliced,
        };
        // beq/bne compare slices independently (equality); the
        // sign-testing branches carry-chain (subtract + sign).
        let slice_class = match op {
            Op::Beq | Op::Bne => SliceClass::Independent,
            _ => op.slice_class(),
        };
        let lat = match op {
            Op::Mult | Op::Multu => LatClass::Mult,
            Op::Div | Op::Divu => LatClass::Div,
            Op::Mfhi | Op::Mflo | Op::Mthi | Op::Mtlo => LatClass::HiLoMove,
            Op::AddS | Op::SubS | Op::CvtSW | Op::CvtWS => LatClass::FpAdd,
            Op::MulS => LatClass::FpMul,
            Op::DivS => LatClass::FpDiv,
            Op::SqrtS => LatClass::FpSqrt,
            _ => LatClass::Alu,
        };
        let ctrl = match op {
            Op::J => Some(CtrlKind::DirectJump { is_call: false }),
            Op::Jal => Some(CtrlKind::DirectJump { is_call: true }),
            Op::Jr => Some(CtrlKind::IndirectJump {
                is_call: false,
                is_return: self.rs() == Reg::RA,
            }),
            Op::Jalr => Some(CtrlKind::IndirectJump {
                is_call: true,
                is_return: false,
            }),
            _ => op.branch_cond().map(CtrlKind::CondBranch),
        };
        UopMeta {
            class,
            slice_class,
            lat,
            ctrl,
            // Set-less-than results depend on the *entire* comparison,
            // so no slice of the output exists before the top slice.
            late_result: matches!(op, Op::Slt | Op::Sltu | Op::Slti | Op::Sltiu),
            is_load: op.is_load(),
            is_store: op.is_store(),
            mem_bytes: op.mem_width().map_or(0, |m| m.bytes() as u8),
        }
    }

    fn src_regs(&self) -> RegList {
        reglist(self.uses())
    }

    fn dst_regs(&self) -> RegList {
        reglist(self.defs())
    }

    fn store_data_reg(&self) -> Option<u8> {
        self.op().is_store().then(|| self.rt().index() as u8)
    }

    fn phantom_nop() -> Insn {
        Insn::r3(Op::Addu, Reg::ZERO, Reg::ZERO, Reg::ZERO)
    }

    fn branch_cmp(rec: &Uop<Insn>) -> (u32, u32) {
        (rec.src_vals[0], rec.src_val(rec.insn.rt()).unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_classes() {
        let m = |op: Op| Insn::r3(op, Reg::gpr(8), Reg::gpr(9), Reg::gpr(10)).meta();
        assert_eq!(m(Op::Addu).class, ExecClass::IntSliced);
        assert!(!m(Op::Addu).is_load && !m(Op::Addu).is_store);
        let lw = Insn::load(Op::Lw, Reg::gpr(8), 0, Reg::gpr(9)).meta();
        assert!(lw.is_load && !lw.is_store);
        assert_eq!(lw.class, ExecClass::IntSliced, "agen is sliced");
        assert_eq!(lw.mem_bytes, 4);
        assert_eq!(Insn::jump(Op::J, 0x1000).meta().class, ExecClass::Front);
        assert_eq!(
            Insn::jump_reg(Op::Jr, Reg::ZERO, Reg::RA).meta().class,
            ExecClass::IntSliced
        );
        assert_eq!(
            Insn::muldiv(Op::Mult, Reg::gpr(8), Reg::gpr(9)).meta().lat,
            LatClass::Mult
        );
        assert_eq!(Insn::sys(Op::Syscall).meta().class, ExecClass::Sys);
    }

    #[test]
    fn branches_compare_independently() {
        let b = |op: Op| Insn::branch(op, Reg::gpr(8), Reg::gpr(9), 4).meta();
        assert_eq!(b(Op::Beq).slice_class, SliceClass::Independent);
        assert_eq!(b(Op::Bne).slice_class, SliceClass::Independent);
        assert_eq!(b(Op::Bgez).slice_class, SliceClass::CarryChained);
        assert!(
            Insn::r3(Op::Slt, Reg::gpr(8), Reg::gpr(9), Reg::gpr(10))
                .meta()
                .late_result
        );
    }

    #[test]
    fn control_kinds_and_returns() {
        use CtrlKind::*;
        assert_eq!(
            Insn::jump(Op::Jal, 0x1000).meta().ctrl,
            Some(DirectJump { is_call: true })
        );
        assert_eq!(
            Insn::jump_reg(Op::Jr, Reg::ZERO, Reg::RA).meta().ctrl,
            Some(IndirectJump {
                is_call: false,
                is_return: true
            })
        );
        assert_eq!(
            Insn::jump_reg(Op::Jr, Reg::ZERO, Reg::gpr(8)).meta().ctrl,
            Some(IndirectJump {
                is_call: false,
                is_return: false
            })
        );
    }

    #[test]
    fn reg_lists_mirror_uses_and_defs() {
        let store = Insn::store(Op::Sw, Reg::gpr(8), 4, Reg::gpr(9));
        let srcs: Vec<u8> = store.src_regs().iter().collect();
        assert_eq!(srcs, vec![9, 8], "base then data, like uses()");
        assert_eq!(store.store_data_reg(), Some(8));
        assert!(store.dst_regs().is_empty());

        let add = Insn::r3(Op::Addu, Reg::gpr(8), Reg::gpr(9), Reg::gpr(9));
        assert_eq!(add.src_regs().len(), 1, "dedup like ArgSet");
        assert_eq!(add.dst_regs().iter().collect::<Vec<_>>(), vec![8]);
    }
}
