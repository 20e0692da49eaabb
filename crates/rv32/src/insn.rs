//! The decoded RV32I instruction and its binding to the micro-op
//! boundary ([`popk_trace::UopInsn`]).
//!
//! [`Rv32Insn`] keeps both the raw 32-bit encoding (lockstep identity,
//! trace-file round-trips) and the decoded fields the timing core asks
//! about. The [`UopInsn`] implementation is the single source of truth
//! for how RV32I opcodes map onto the scheduling vocabulary — execution
//! class, Fig. 8 slice class, latency class, control kind — exactly as
//! `popk_trace::pisa` is for the native ISA.

use popk_isa::{BranchCond, SliceClass};
use popk_trace::{CtrlKind, ExecClass, LatClass, RegList, Uop, UopInsn, UopMeta};
use std::fmt;

/// RV32I opcode, post-decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Rv32Op {
    Lui,
    Auipc,
    Jal,
    Jalr,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Lb,
    Lh,
    Lw,
    Lbu,
    Lhu,
    Sb,
    Sh,
    Sw,
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Fence,
    Ecall,
    Ebreak,
}

impl Rv32Op {
    /// Lower-case mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use Rv32Op::*;
        match self {
            Lui => "lui",
            Auipc => "auipc",
            Jal => "jal",
            Jalr => "jalr",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Bltu => "bltu",
            Bgeu => "bgeu",
            Lb => "lb",
            Lh => "lh",
            Lw => "lw",
            Lbu => "lbu",
            Lhu => "lhu",
            Sb => "sb",
            Sh => "sh",
            Sw => "sw",
            Addi => "addi",
            Slti => "slti",
            Sltiu => "sltiu",
            Xori => "xori",
            Ori => "ori",
            Andi => "andi",
            Slli => "slli",
            Srli => "srli",
            Srai => "srai",
            Add => "add",
            Sub => "sub",
            Sll => "sll",
            Slt => "slt",
            Sltu => "sltu",
            Xor => "xor",
            Srl => "srl",
            Sra => "sra",
            Or => "or",
            And => "and",
            Fence => "fence",
            Ecall => "ecall",
            Ebreak => "ebreak",
        }
    }

    /// Memory access width in bytes (0 for non-memory instructions).
    pub fn mem_bytes(self) -> u8 {
        use Rv32Op::*;
        match self {
            Lb | Lbu | Sb => 1,
            Lh | Lhu | Sh => 2,
            Lw | Sw => 4,
            _ => 0,
        }
    }

    /// Is this a load?
    pub fn is_load(self) -> bool {
        matches!(
            self,
            Rv32Op::Lb | Rv32Op::Lh | Rv32Op::Lw | Rv32Op::Lbu | Rv32Op::Lhu
        )
    }

    /// Is this a store?
    pub fn is_store(self) -> bool {
        matches!(self, Rv32Op::Sb | Rv32Op::Sh | Rv32Op::Sw)
    }

    /// Condition tested, if a conditional branch.
    pub fn branch_cond(self) -> Option<BranchCond> {
        use Rv32Op::*;
        Some(match self {
            Beq => BranchCond::Eq,
            Bne => BranchCond::Ne,
            Blt => BranchCond::Lt,
            Bge => BranchCond::Ge,
            Bltu => BranchCond::Ltu,
            Bgeu => BranchCond::Geu,
            _ => return None,
        })
    }
}

/// One decoded RV32I instruction: the raw word plus its fields.
/// Equality is on the raw encoding (two decodes of the same word are
/// the same instruction).
#[derive(Clone, Copy, Debug)]
pub struct Rv32Insn {
    /// The original 32-bit encoding.
    pub raw: u32,
    /// Decoded opcode.
    pub op: Rv32Op,
    /// Destination register (x0–x31; x0 writes are discarded).
    pub rd: u8,
    /// First source register.
    pub rs1: u8,
    /// Second source register.
    pub rs2: u8,
    /// Decoded immediate, sign-extended where the format calls for it.
    /// U-format immediates are stored pre-shifted (`imm << 12`).
    pub imm: i32,
}

impl PartialEq for Rv32Insn {
    fn eq(&self, other: &Rv32Insn) -> bool {
        self.raw == other.raw
    }
}

impl Eq for Rv32Insn {}

/// Does `rd`/`rs1` name a RISC-V link register (`ra` = x1, `t0` = x5)?
/// The standard calling convention drives the return-address stack off
/// these two.
fn is_link(r: u8) -> bool {
    r == 1 || r == 5
}

impl Rv32Insn {
    /// Does this instruction write `rd`?
    fn writes_rd(&self) -> bool {
        use Rv32Op::*;
        !matches!(
            self.op,
            Beq | Bne | Blt | Bge | Bltu | Bgeu | Sb | Sh | Sw | Fence | Ecall | Ebreak
        ) && self.rd != 0
    }

    /// The source registers this instruction actually reads, in
    /// `src_vals` order (base before store data, `rs1` before `rs2`).
    fn reads(&self) -> RegList {
        use Rv32Op::*;
        let mut l = RegList::new();
        match self.op {
            Lui | Auipc | Jal | Fence | Ecall | Ebreak => {}
            Jalr | Lb | Lh | Lw | Lbu | Lhu | Addi | Slti | Sltiu | Xori | Ori | Andi | Slli
            | Srli | Srai => {
                if self.rs1 != 0 {
                    l.push(self.rs1);
                }
            }
            _ => {
                // R-type, branches, stores: rs1 then rs2.
                if self.rs1 != 0 {
                    l.push(self.rs1);
                }
                if self.rs2 != 0 {
                    l.push(self.rs2);
                }
            }
        }
        l
    }
}

impl fmt::Display for Rv32Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Rv32Op::*;
        let m = self.op.mnemonic();
        let (rd, rs1, rs2, imm) = (self.rd, self.rs1, self.rs2, self.imm);
        match self.op {
            Lui | Auipc => write!(f, "{m} x{rd}, {:#x}", (imm as u32) >> 12),
            Jal => write!(f, "{m} x{rd}, {imm}"),
            Jalr => write!(f, "{m} x{rd}, {imm}(x{rs1})"),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => write!(f, "{m} x{rs1}, x{rs2}, {imm}"),
            Lb | Lh | Lw | Lbu | Lhu => write!(f, "{m} x{rd}, {imm}(x{rs1})"),
            Sb | Sh | Sw => write!(f, "{m} x{rs2}, {imm}(x{rs1})"),
            Slli | Srli | Srai => write!(f, "{m} x{rd}, x{rs1}, {}", imm & 31),
            Addi | Slti | Sltiu | Xori | Ori | Andi => write!(f, "{m} x{rd}, x{rs1}, {imm}"),
            Fence | Ecall | Ebreak => write!(f, "{m}"),
            _ => write!(f, "{m} x{rd}, x{rs1}, x{rs2}"),
        }
    }
}

/// Extension methods on RV32 micro-ops (`Uop` lives in `popk-trace`, so
/// an inherent impl is not possible here).
pub trait Rv32UopExt {
    /// The value of source register `r`, if this instruction reads it.
    fn src_val(&self, r: u8) -> Option<u32>;
}

impl Rv32UopExt for Uop<Rv32Insn> {
    fn src_val(&self, r: u8) -> Option<u32> {
        self.insn
            .reads()
            .iter()
            .position(|u| u == r)
            .map(|i| self.src_vals[i])
    }
}

impl UopInsn for Rv32Insn {
    const NUM_REGS: usize = 32;

    fn meta(&self) -> UopMeta {
        use Rv32Op::*;
        let op = self.op;
        let class = match op {
            Jal => ExecClass::Front,
            Ecall | Ebreak | Fence => ExecClass::Sys,
            _ => ExecClass::IntSliced,
        };
        // Equality branches and bitwise logic compare/combine slices
        // independently; adds, set-less-thans, agen and the magnitude
        // branches carry-chain; shifts need cross-slice communication.
        let slice_class = match op {
            And | Or | Xor | Andi | Ori | Xori | Lui | Beq | Bne => SliceClass::Independent,
            Sll | Srl | Sra | Slli | Srli | Srai => SliceClass::CrossSlice,
            Fence | Ecall | Ebreak | Jal => SliceClass::Atomic,
            _ => SliceClass::CarryChained,
        };
        let ctrl = match op {
            Jal => Some(CtrlKind::DirectJump {
                is_call: is_link(self.rd),
            }),
            Jalr => Some(CtrlKind::IndirectJump {
                is_call: is_link(self.rd),
                is_return: self.rd == 0 && is_link(self.rs1),
            }),
            _ => op.branch_cond().map(CtrlKind::CondBranch),
        };
        UopMeta {
            class,
            slice_class,
            lat: LatClass::Alu, // RV32I base: every op is single-cycle ALU work
            ctrl,
            late_result: matches!(op, Slt | Sltu | Slti | Sltiu),
            is_load: op.is_load(),
            is_store: op.is_store(),
            mem_bytes: op.mem_bytes(),
        }
    }

    fn src_regs(&self) -> RegList {
        self.reads()
    }

    fn dst_regs(&self) -> RegList {
        let mut l = RegList::new();
        if self.writes_rd() {
            l.push(self.rd);
        }
        l
    }

    fn store_data_reg(&self) -> Option<u8> {
        self.op.is_store().then_some(self.rs2)
    }

    fn phantom_nop() -> Rv32Insn {
        // addi x0, x0, 0 — the canonical RISC-V nop.
        Rv32Insn {
            raw: 0x0000_0013,
            op: Rv32Op::Addi,
            rd: 0,
            rs1: 0,
            rs2: 0,
            imm: 0,
        }
    }

    fn branch_cmp(rec: &Uop<Rv32Insn>) -> (u32, u32) {
        (
            rec.src_val(rec.insn.rs1).unwrap_or(0),
            rec.src_val(rec.insn.rs2).unwrap_or(0),
        )
    }
}

/// Decode one RV32I instruction word. Returns `None` for encodings
/// outside the supported RV32I subset (including the compressed
/// extension — all popk programs are 4-byte aligned).
pub fn decode(raw: u32) -> Option<Rv32Insn> {
    let opcode = raw & 0x7f;
    let rd = ((raw >> 7) & 31) as u8;
    let f3 = (raw >> 12) & 7;
    let rs1 = ((raw >> 15) & 31) as u8;
    let rs2 = ((raw >> 20) & 31) as u8;
    let f7 = raw >> 25;

    let i_imm = (raw as i32) >> 20;
    let s_imm = (((raw & 0xfe00_0000) as i32) >> 20) | (((raw >> 7) & 31) as i32);
    let b_imm = (((raw & 0x8000_0000) as i32) >> 19)
        | ((((raw >> 7) & 1) as i32) << 11)
        | ((((raw >> 25) & 0x3f) as i32) << 5)
        | ((((raw >> 8) & 0xf) as i32) << 1);
    let u_imm = (raw & 0xffff_f000) as i32;
    let j_imm = (((raw & 0x8000_0000) as i32) >> 11)
        | ((raw & 0x000f_f000) as i32)
        | ((((raw >> 20) & 1) as i32) << 11)
        | ((((raw >> 21) & 0x3ff) as i32) << 1);

    let mk = |op, rd, rs1, rs2, imm| {
        Some(Rv32Insn {
            raw,
            op,
            rd,
            rs1,
            rs2,
            imm,
        })
    };
    use Rv32Op::*;
    match opcode {
        0x37 => mk(Lui, rd, 0, 0, u_imm),
        0x17 => mk(Auipc, rd, 0, 0, u_imm),
        0x6f => mk(Jal, rd, 0, 0, j_imm),
        0x67 if f3 == 0 => mk(Jalr, rd, rs1, 0, i_imm),
        0x63 => {
            let op = match f3 {
                0 => Beq,
                1 => Bne,
                4 => Blt,
                5 => Bge,
                6 => Bltu,
                7 => Bgeu,
                _ => return None,
            };
            mk(op, 0, rs1, rs2, b_imm)
        }
        0x03 => {
            let op = match f3 {
                0 => Lb,
                1 => Lh,
                2 => Lw,
                4 => Lbu,
                5 => Lhu,
                _ => return None,
            };
            mk(op, rd, rs1, 0, i_imm)
        }
        0x23 => {
            let op = match f3 {
                0 => Sb,
                1 => Sh,
                2 => Sw,
                _ => return None,
            };
            mk(op, 0, rs1, rs2, s_imm)
        }
        0x13 => {
            let op = match f3 {
                0 => Addi,
                2 => Slti,
                3 => Sltiu,
                4 => Xori,
                6 => Ori,
                7 => Andi,
                1 if f7 == 0 => Slli,
                5 if f7 == 0 => Srli,
                5 if f7 == 0x20 => Srai,
                _ => return None,
            };
            // Shift immediates keep only the 5-bit shamt.
            let imm = if matches!(op, Slli | Srli | Srai) {
                i_imm & 31
            } else {
                i_imm
            };
            mk(op, rd, rs1, 0, imm)
        }
        0x33 => {
            let op = match (f3, f7) {
                (0, 0) => Add,
                (0, 0x20) => Sub,
                (1, 0) => Sll,
                (2, 0) => Slt,
                (3, 0) => Sltu,
                (4, 0) => Xor,
                (5, 0) => Srl,
                (5, 0x20) => Sra,
                (6, 0) => Or,
                (7, 0) => And,
                _ => return None,
            };
            mk(op, rd, rs1, rs2, 0)
        }
        0x0f if f3 == 0 => mk(Fence, 0, 0, 0, 0),
        0x73 if raw == 0x0000_0073 => mk(Ecall, 0, 0, 0, 0),
        0x73 if raw == 0x0010_0073 => mk(Ebreak, 0, 0, 0, 0),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;

    #[test]
    fn decode_round_trips_the_assembler() {
        let words = [
            asm::addi(5, 0, -7),
            asm::lui(6, 0x12345),
            asm::auipc(7, 1),
            asm::add(8, 5, 6),
            asm::sub(9, 6, 5),
            asm::sltu(10, 5, 6),
            asm::beq(5, 6, -8),
            asm::bge(5, 6, 12),
            asm::jal(1, 2048),
            asm::jalr(0, 1, 0),
            asm::lw(11, 5, 4),
            asm::sw(5, 11, -4),
            asm::sb(5, 11, 3),
            asm::slli(12, 5, 31),
            asm::srai(13, 5, 1),
            asm::ecall(),
        ];
        for raw in words {
            let insn = decode(raw).expect("assembler output decodes");
            assert_eq!(insn.raw, raw, "{insn}");
        }
        assert_eq!(decode(asm::addi(5, 3, -7)).unwrap().imm, -7);
        assert_eq!(decode(asm::jal(1, -2048)).unwrap().imm, -2048);
        assert_eq!(decode(asm::beq(5, 6, -8)).unwrap().imm, -8);
        assert_eq!(decode(asm::sw(5, 11, -4)).unwrap().imm, -4);
        assert_eq!(decode(asm::lui(6, 0x12345)).unwrap().imm, 0x1234_5000);
        assert!(decode(0xffff_ffff).is_none(), "garbage must not decode");
    }

    #[test]
    fn meta_maps_the_scheduling_vocabulary() {
        let m = |raw: u32| decode(raw).unwrap().meta();
        assert_eq!(m(asm::add(8, 5, 6)).slice_class, SliceClass::CarryChained);
        assert_eq!(m(asm::xor(8, 5, 6)).slice_class, SliceClass::Independent);
        assert_eq!(m(asm::sll(8, 5, 6)).slice_class, SliceClass::CrossSlice);
        assert_eq!(m(asm::beq(5, 6, 8)).slice_class, SliceClass::Independent);
        assert_eq!(m(asm::blt(5, 6, 8)).slice_class, SliceClass::CarryChained);
        assert!(m(asm::slt(8, 5, 6)).late_result);
        assert_eq!(m(asm::jal(1, 8)).class, ExecClass::Front);
        assert_eq!(m(asm::ecall()).class, ExecClass::Sys);
        let lw = m(asm::lw(8, 5, 0));
        assert!(lw.is_load && lw.mem_bytes == 4);
        assert_eq!(m(asm::lbu(8, 5, 0)).mem_bytes, 1);
        assert_eq!(m(asm::sh(5, 8, 0)).mem_bytes, 2);
    }

    #[test]
    fn control_kinds_follow_the_link_convention() {
        let ctrl = |raw: u32| decode(raw).unwrap().meta().ctrl;
        assert_eq!(
            ctrl(asm::jal(1, 8)),
            Some(CtrlKind::DirectJump { is_call: true })
        );
        assert_eq!(
            ctrl(asm::jal(0, 8)),
            Some(CtrlKind::DirectJump { is_call: false })
        );
        assert_eq!(
            ctrl(asm::jalr(0, 1, 0)),
            Some(CtrlKind::IndirectJump {
                is_call: false,
                is_return: true
            })
        );
        assert_eq!(
            ctrl(asm::jalr(1, 6, 0)),
            Some(CtrlKind::IndirectJump {
                is_call: true,
                is_return: false
            })
        );
        assert_eq!(
            ctrl(asm::bne(5, 6, 8)),
            Some(CtrlKind::CondBranch(BranchCond::Ne))
        );
    }

    #[test]
    fn reg_lists_and_store_data() {
        let sw = decode(asm::sw(5, 11, 0)).unwrap();
        assert_eq!(sw.src_regs().iter().collect::<Vec<_>>(), vec![5, 11]);
        assert_eq!(sw.store_data_reg(), Some(11));
        assert!(sw.dst_regs().is_empty());

        let add = decode(asm::add(8, 5, 5)).unwrap();
        assert_eq!(add.src_regs().len(), 1, "dedup like the PISA binding");
        assert_eq!(add.dst_regs().iter().collect::<Vec<_>>(), vec![8]);

        // x0 writes are not reported.
        let nop = Rv32Insn::phantom_nop();
        assert!(nop.dst_regs().is_empty());
        assert!(nop.src_regs().is_empty());
        assert_eq!(decode(nop.raw).unwrap(), nop);
    }
}
