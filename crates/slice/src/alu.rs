//! A bit-sliced ALU: operations evaluated one slice at a time with
//! explicit inter-slice state.
//!
//! This mirrors the datapath of the paper's Figure 7/8: a slice-by-*n*
//! machine has *n* narrow ALUs, each computing one slice of the result per
//! stage. Arithmetic threads a carry bit between slices (Fig. 8b), logic
//! slices are fully independent (Fig. 8c), and shifts need cross-slice
//! communication, so they are evaluated against the full operands.

use crate::sliced::{SliceWidth, Sliced};

/// Operations the sliced ALU understands, grouped by inter-slice
/// dependence shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AluSliceOp {
    /// `a + b` (carry-chained).
    Add,
    /// `a - b` (carry-chained, implemented as `a + !b + 1`).
    Sub,
    /// `a & b` (independent).
    And,
    /// `a | b` (independent).
    Or,
    /// `a ^ b` (independent).
    Xor,
    /// `!(a | b)` (independent).
    Nor,
    /// Logical left shift by `b & 31` (cross-slice).
    Sll,
    /// Logical right shift by `b & 31` (cross-slice).
    Srl,
    /// Arithmetic right shift by `b & 31` (cross-slice).
    Sra,
    /// Signed set-less-than: carry-chained subtract, result determined by
    /// the final slice's sign/overflow.
    Slt,
    /// Unsigned set-less-than.
    Sltu,
}

impl AluSliceOp {
    /// Whether slices of this op can execute out of order with respect to
    /// each other (no inter-slice communication) — Fig. 8c.
    pub const fn slices_independent(self) -> bool {
        matches!(
            self,
            AluSliceOp::And | AluSliceOp::Or | AluSliceOp::Xor | AluSliceOp::Nor
        )
    }

    /// The full-width reference semantics.
    pub fn eval_full(self, a: u32, b: u32) -> u32 {
        match self {
            AluSliceOp::Add => a.wrapping_add(b),
            AluSliceOp::Sub => a.wrapping_sub(b),
            AluSliceOp::And => a & b,
            AluSliceOp::Or => a | b,
            AluSliceOp::Xor => a ^ b,
            AluSliceOp::Nor => !(a | b),
            AluSliceOp::Sll => a << (b & 31),
            AluSliceOp::Srl => a >> (b & 31),
            AluSliceOp::Sra => ((a as i32) >> (b & 31)) as u32,
            AluSliceOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluSliceOp::Sltu => (a < b) as u32,
        }
    }
}

/// A bit-sliced ALU for a fixed [`SliceWidth`].
///
/// The [`SliceAlu::eval`] entry point produces the complete [`Sliced`]
/// result by invoking the per-slice circuit in dependence order, exactly as
/// the pipeline would. Per-slice pieces are also exposed
/// ([`SliceAlu::add_slice`], [`SliceAlu::logic_slice`]) so the timing model
/// can compute individual slices as they issue.
#[derive(Clone, Copy, Debug)]
pub struct SliceAlu {
    width: SliceWidth,
}

impl SliceAlu {
    /// An ALU sliced at `width`.
    pub fn new(width: SliceWidth) -> SliceAlu {
        SliceAlu { width }
    }

    /// The slicing in effect.
    pub fn width(&self) -> SliceWidth {
        self.width
    }

    /// One adder slice: `a_k + b_k + carry_in`, returning the slice result
    /// and the carry out of the slice (the Fig. 8b inter-slice edge).
    #[inline]
    pub fn add_slice(&self, a_k: u32, b_k: u32, carry_in: u32) -> (u32, u32) {
        debug_assert!(carry_in <= 1);
        let mask = self.width.mask();
        debug_assert_eq!(a_k & !mask, 0);
        debug_assert_eq!(b_k & !mask, 0);
        // Widen so the degenerate 32-bit slice doesn't overflow.
        let sum = a_k as u64 + b_k as u64 + carry_in as u64;
        ((sum as u32) & mask, ((sum >> self.width.bits()) & 1) as u32)
    }

    /// One logic slice (no inter-slice state).
    #[inline]
    pub fn logic_slice(&self, op: AluSliceOp, a_k: u32, b_k: u32) -> u32 {
        let mask = self.width.mask();
        match op {
            AluSliceOp::And => a_k & b_k,
            AluSliceOp::Or => a_k | b_k,
            AluSliceOp::Xor => a_k ^ b_k,
            AluSliceOp::Nor => !(a_k | b_k) & mask,
            _ => panic!("logic_slice called with non-logic op {op:?}"),
        }
    }

    /// Evaluate `op` slice by slice.
    ///
    /// Carry-chained ops walk slices low→high threading a carry; logic ops
    /// evaluate each slice independently (here in arbitrary order —
    /// hardware may reorder them); shifts and `slt`/`sltu` consume full
    /// operands (`slt` needs the final carry/sign, shifts cross slices).
    pub fn eval(&self, op: AluSliceOp, a: u32, b: u32) -> Sliced {
        let w = self.width;
        let sa = Sliced::split(a, w);
        let sb = Sliced::split(b, w);
        let mut out = Sliced::zero(w);
        match op {
            AluSliceOp::Add => {
                let mut carry = 0;
                for k in 0..w.count() {
                    let (s, c) = self.add_slice(sa.get(k), sb.get(k), carry);
                    out.set(k, s);
                    carry = c;
                }
            }
            AluSliceOp::Sub => {
                // a - b = a + !b + 1: invert the subtrahend slice-locally
                // and inject the +1 as the initial carry.
                let mut carry = 1;
                for k in 0..w.count() {
                    let nb = !sb.get(k) & w.mask();
                    let (s, c) = self.add_slice(sa.get(k), nb, carry);
                    out.set(k, s);
                    carry = c;
                }
            }
            AluSliceOp::And | AluSliceOp::Or | AluSliceOp::Xor | AluSliceOp::Nor => {
                // Independent: evaluate high-to-low to demonstrate order
                // freedom (Fig. 8c).
                for k in (0..w.count()).rev() {
                    out.set(k, self.logic_slice(op, sa.get(k), sb.get(k)));
                }
            }
            AluSliceOp::Sll
            | AluSliceOp::Srl
            | AluSliceOp::Sra
            | AluSliceOp::Slt
            | AluSliceOp::Sltu => {
                // Cross-slice / sign-dependent: needs the full operands.
                out = Sliced::split(op.eval_full(a, b), w);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popk_isa::rng::SplitMix64;

    const WIDTHS: [SliceWidth; 3] = [SliceWidth::W32, SliceWidth::W16, SliceWidth::W8];
    const OPS: [AluSliceOp; 11] = [
        AluSliceOp::Add,
        AluSliceOp::Sub,
        AluSliceOp::And,
        AluSliceOp::Or,
        AluSliceOp::Xor,
        AluSliceOp::Nor,
        AluSliceOp::Sll,
        AluSliceOp::Srl,
        AluSliceOp::Sra,
        AluSliceOp::Slt,
        AluSliceOp::Sltu,
    ];

    #[test]
    fn add_slice_carry_propagation() {
        let alu = SliceAlu::new(SliceWidth::W8);
        // 0xff + 0x01 = 0x00 carry 1.
        assert_eq!(alu.add_slice(0xff, 0x01, 0), (0x00, 1));
        assert_eq!(alu.add_slice(0xff, 0xff, 1), (0xff, 1));
        assert_eq!(alu.add_slice(0x10, 0x20, 0), (0x30, 0));
    }

    #[test]
    fn sub_via_complement() {
        let alu = SliceAlu::new(SliceWidth::W16);
        assert_eq!(alu.eval(AluSliceOp::Sub, 5, 7).join(), 5u32.wrapping_sub(7));
        assert_eq!(alu.eval(AluSliceOp::Sub, 0x0001_0000, 1).join(), 0xffff);
    }

    #[test]
    fn independence_of_logic_slices() {
        // Logic evaluated high-to-low must still match the reference.
        let alu = SliceAlu::new(SliceWidth::W8);
        assert_eq!(
            alu.eval(AluSliceOp::Nor, 0x0f0f_0f0f, 0x3030_3030).join(),
            !(0x0f0f_0f0fu32 | 0x3030_3030)
        );
    }

    /// An edge-biased operand stream: raw random words mixed with
    /// carry/shift corner values.
    fn operand_pairs(seed: u64, n: usize) -> impl Iterator<Item = (u32, u32)> {
        let mut rng = SplitMix64::new(seed);
        const EDGES: [u32; 8] = [
            0,
            1,
            0xff,
            0xffff,
            0x8000_0000,
            u32::MAX,
            0x7fff_ffff,
            0x0001_0000,
        ];
        (0..n).map(move |i| {
            let a = if i % 4 == 0 {
                *rng.pick(&EDGES)
            } else {
                rng.next_u32()
            };
            let b = if i % 5 == 0 {
                *rng.pick(&EDGES)
            } else {
                rng.next_u32()
            };
            (a, b)
        })
    }

    /// Pinned compare and carry traps: equality, signed MAX/MIN
    /// straddles, −1 vs 0, and full-width carry/borrow chains.
    const TRAPS: [(u32, u32); 13] = [
        (0, 0),
        (5, 5),
        (4, 5),
        (5, 4),
        (0x7fff_ffff, 0x8000_0000),
        (0x8000_0000, 0x7fff_ffff),
        (0xffff_ffff, 0),
        (0, 0xffff_ffff),
        (0x8000_0000, 0x8000_0000),
        (1, 0xffff_ffff),
        (0xffff_ffff, 1),
        (0x0101_0101, 0x0101_0101),
        (0x00ff_00ff, 0x0001_0001),
    ];

    #[test]
    fn sliced_matches_full() {
        for (a, b) in operand_pairs(0xa1, 2048).chain(TRAPS) {
            for w in WIDTHS {
                let alu = SliceAlu::new(w);
                for op in OPS {
                    assert_eq!(
                        alu.eval(op, a, b).join(),
                        op.eval_full(a, b),
                        "op {op:?} width {w:?} a {a:#x} b {b:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn carry_chain_is_the_only_coupling() {
        // Computing slice k of a+b from only slices 0..=k plus the
        // incoming carry must equal the corresponding bits of the full
        // sum — i.e. partial operand knowledge of an add is exact.
        for (a, b) in operand_pairs(0xca44, 4096) {
            let w = SliceWidth::W8;
            let alu = SliceAlu::new(w);
            let full = a.wrapping_add(b);
            let (sa, sb) = (Sliced::split(a, w), Sliced::split(b, w));
            let mut carry = 0;
            for k in 0..w.count() {
                let (s, c) = alu.add_slice(sa.get(k), sb.get(k), carry);
                assert_eq!(
                    s,
                    (full >> (8 * k as u32)) & 0xff,
                    "a {a:#x} b {b:#x} k {k}"
                );
                carry = c;
            }
        }
    }
}
