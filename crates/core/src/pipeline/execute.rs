//! The execute stage: slice-level issue rules (Fig. 8), the atomic
//! functional units of Table 2, branch resolution timing (Fig. 6), and
//! the narrow-operand publication extension.
//!
//! Each operand is decomposed per `SliceWidth`, and slice `k` of an
//! instruction issues when its source slices are available and its
//! class's inter-slice dependences are met — a carry edge for
//! arithmetic, none for logic, full-width for shifts. Without
//! `partial_bypass` the machine degrades to naive EX pipelining: one
//! issue event, result atomic after `slice_count` cycles. Which slice
//! resolves a conditional branch is delegated to the configured
//! [`crate::policies::BranchResolvePolicy`].

use super::entry::{CycleSlot, Dep, ExecClass, MAX_SLICES};
use super::issue::{Block, IssueMark, Progress};
use super::{emit, Simulator};
use crate::config::PipelineKind;
use crate::events::{TraceEvent, TraceSink};
use popk_isa::SliceClass;
use popk_trace::{CtrlKind, LatClass, UopInsn};

/// Reservations of the non-pipelined functional units (Table 2: one
/// multiply/divide unit, one FP long-op unit).
#[derive(Default)]
pub(crate) struct FuncUnits {
    /// Cycle the integer multiply/divide unit frees up.
    pub(crate) muldiv_busy_until: u64,
    /// Cycle the FP multiply/divide/sqrt unit frees up.
    pub(crate) fp_long_busy_until: u64,
}

/// A value is "narrow" when it is the sign- or zero-extension of its
/// low slice (so all upper slices are all-zeros or all-ones).
fn value_is_narrow(v: u32, slice_bits: u32) -> bool {
    let shifted = (v as i32) >> (slice_bits - 1);
    shifted == 0 || shifted == -1 || v >> slice_bits == 0
}

impl<I: UopInsn, S: TraceSink<I>> Simulator<S, I> {
    /// Issue one of the atomic (unsliced) functional-unit operations:
    /// multiply/divide, FP add, FP long ops.
    pub(crate) fn examine_atomic_unit(&mut self, idx: usize, fp_used: &mut usize) {
        let seq = self.window.seq(idx);
        let class = self.window.class(idx);
        if self.window.issued(idx, 0).is_set() {
            self.finish_if_done(idx);
            return;
        }
        if !self.all_sources_ready(idx) {
            self.block_on_sources(idx);
            return;
        }
        let lat_class = self.window.lat(idx);
        let (latency, ok, retry) = match class {
            ExecClass::MulDiv => {
                let lat = match lat_class {
                    LatClass::Div => self.cfg.div_latency,
                    LatClass::Mult => self.cfg.mult_latency,
                    _ => 1, // hi/lo moves
                };
                let free =
                    self.units.muldiv_busy_until <= self.cycle || lat_class == LatClass::HiLoMove;
                (lat, free, self.units.muldiv_busy_until)
            }
            ExecClass::FpAdd => (
                self.cfg.fp_latency,
                *fp_used < self.cfg.fp_alus as usize,
                self.cycle + 1,
            ),
            ExecClass::FpLong => {
                let lat = match lat_class {
                    LatClass::FpMul => self.cfg.fp_mul_latency,
                    LatClass::FpSqrt => self.cfg.fp_sqrt_latency,
                    _ => self.cfg.fp_div_latency,
                };
                (
                    lat,
                    self.units.fp_long_busy_until <= self.cycle,
                    self.units.fp_long_busy_until,
                )
            }
            _ => unreachable!(),
        };
        if !ok {
            // Unit busy (or FP slots full): the reservation can
            // extend in the meantime, in which case the retry
            // re-blocks and reschedules again.
            self.wake_at(seq, retry.max(self.cycle + 1));
            return;
        }
        match class {
            ExecClass::MulDiv => {
                if matches!(lat_class, LatClass::Mult | LatClass::Div) {
                    self.units.muldiv_busy_until = self.cycle + latency;
                }
            }
            ExecClass::FpAdd => *fp_used += 1,
            ExecClass::FpLong => self.units.fp_long_busy_until = self.cycle + latency,
            _ => {}
        }
        let done = self.cycle + latency;
        self.publish_all_slices(idx, done, IssueMark::Slot0);
        self.finish_if_done(idx);
    }

    /// The naive-pipelining issue path (no partial bypassing): a single
    /// issue event, result atomic after `nslices` cycles.
    pub(crate) fn examine_unsliced(
        &mut self,
        idx: usize,
        int_used: &mut [usize; MAX_SLICES],
    ) -> Progress {
        let seq = self.window.seq(idx);
        let nslices = self.nslices;
        if self.window.issued(idx, 0).is_unset() {
            if int_used[0] >= self.cfg.int_alus.min(self.cfg.width) as usize {
                self.wake_at(seq, self.cycle + 1);
            } else if !self.all_sources_ready(idx) {
                self.block_on_sources(idx);
            } else {
                let done = self.cycle
                    + match self.cfg.kind {
                        PipelineKind::Ideal => 1,
                        _ => nslices as u64,
                    };
                int_used[0] += 1;
                self.publish_all_slices(idx, done, IssueMark::AllSlices);
                return Progress::Issued { all: true };
            }
            Progress::NoChange { all: false }
        } else {
            Progress::NoChange { all: true }
        }
    }

    /// The bit-sliced issue path: try to issue (at most) one slice this
    /// cycle, exactly as the exhaustive scan would. If nothing issues,
    /// park the entry on its blockers.
    pub(crate) fn examine_sliced(
        &mut self,
        idx: usize,
        int_used: &mut [usize; MAX_SLICES],
    ) -> Progress {
        let nslices = self.nslices;
        let seq = self.window.seq(idx);
        let alu_cap = self.cfg.int_alus.min(self.cfg.width) as usize;
        let mut retry: Option<u64> = None;
        let mut on_publish: [Option<u64>; 2] = [None; 2];
        let mut all_issued = true;
        {
            // Bit-sliced issue: wake slices independently, but
            // at most one slice of an instruction per cycle —
            // the Fig. 10 EX1/EX2 staging (each RUU entry has
            // one select port; slices occupy successive narrow
            // stages).
            #[allow(clippy::needless_range_loop)] // int_used is
            // indexed by slice position, not iterated
            for k in 0..nslices {
                if self.window.issued(idx, k).is_set() {
                    continue;
                }
                all_issued = false;
                if int_used[k] >= alu_cap {
                    // ALU slot contention: the slots refill next cycle.
                    retry = Some(retry.map_or(self.cycle + 1, |t| t.min(self.cycle + 1)));
                    continue;
                }
                if let Err(block) = self.slice_gate(idx, k) {
                    match block {
                        Some(Block::Until(t)) => {
                            retry = Some(retry.map_or(t, |r| r.min(t)));
                        }
                        Some(Block::OnPublish(p)) if !on_publish.contains(&Some(p)) => {
                            let slot = usize::from(on_publish[0].is_some());
                            on_publish[slot] = Some(p);
                        }
                        Some(Block::OnPublish(_)) => {}
                        // Blocked on this entry's own earlier slice: its
                        // issue reschedules the entry for the next cycle.
                        None => {}
                    }
                    continue;
                }
                int_used[k] += 1;
                // Snapshot of the result schedule for event diffing (the
                // late/narrow special cases below rewrite `ready` slots);
                // only a recording sink needs it.
                let before_ready = S::ENABLED.then(|| self.window.ready_row(idx));
                let late = self.window.late_result(idx);
                let slice_class = self.window.slice_class(idx);
                let narrow_publish = k == 0
                    && !late
                    && self.cfg.opts.narrow_operands
                    && !self.window.is_mem(idx)
                    && self.window.has_def(idx)
                    && value_is_narrow(self.window.rec(idx).results[0], self.slice_bits);
                self.window.set_issued(idx, k, self.cycle);
                self.window.set_ready(idx, k, CycleSlot::at(self.cycle + 1));
                if narrow_publish && slice_class != SliceClass::Atomic {
                    // Significance compression (§6 extension +
                    // ref [6]): a narrow result's upper slices
                    // are its sign bits — publish them with
                    // slice 0 and skip their execution.
                    self.stats.narrow_wakeups += 1;
                    emit!(self, TraceEvent::NarrowWakeup { seq });
                    for j in 1..nslices {
                        self.window.set_issued(idx, j, self.cycle);
                        self.window.set_ready(idx, j, CycleSlot::at(self.cycle + 1));
                    }
                }
                // Whether this issue published any result slice: every
                // slot the paths below touch is scheduled at `cycle + 1`,
                // except the late non-final case, which reverts its slot
                // to unset (nothing published until the top slice).
                let mut published = true;
                if slice_class == SliceClass::Atomic {
                    // Atomic ops (jr/jalr) issue once and
                    // publish every slice together.
                    for j in 0..nslices {
                        self.window.set_issued(idx, j, self.cycle);
                        self.window.set_ready(idx, j, CycleSlot::at(self.cycle + 1));
                    }
                } else if late {
                    // slt-family: every result slice is a
                    // function of the full comparison, so
                    // nothing publishes until the top slice
                    // has evaluated.
                    if (0..nslices).all(|j| self.window.issued(idx, j).is_set()) {
                        for j in 0..nslices {
                            self.window.set_ready(idx, j, CycleSlot::at(self.cycle + 1));
                        }
                    } else {
                        self.window.set_ready(idx, k, CycleSlot::UNSET);
                        published = false;
                    }
                }
                if let Some(before_ready) = before_ready {
                    // Emit exactly what changed: every slice
                    // issued this cycle (the narrow/atomic
                    // paths issue several at once) and every
                    // ready-slot the special cases rewrote.
                    for j in 0..nslices {
                        if self.window.issued(idx, j).get() == Some(self.cycle) {
                            emit!(
                                self,
                                TraceEvent::SliceIssued {
                                    seq,
                                    slice: j as u8
                                }
                            );
                        }
                        let r = self.window.ready(idx, j);
                        if r != before_ready[j] {
                            if let Some(at) = r.get() {
                                emit!(
                                    self,
                                    TraceEvent::SliceReady {
                                        seq,
                                        slice: j as u8,
                                        at,
                                    }
                                );
                            }
                        }
                    }
                }
                // One slice per entry per cycle.
                if published {
                    self.wake_waiters(idx, self.cycle + 1);
                }
                return Progress::Issued {
                    all: (0..nslices).all(|j| self.window.issued(idx, j).is_set()),
                };
            }
        }
        // Nothing issued: park on the recorded blockers.
        for p in on_publish.into_iter().flatten() {
            self.wait_on(seq, p);
        }
        if let Some(t) = retry {
            self.wake_at(seq, t.max(self.cycle + 1));
        }
        Progress::NoChange { all: all_issued }
    }

    /// One-pass issue gate for slice `k`: `Ok(())` when it can issue this
    /// cycle, `Err(why)` otherwise — `Err(None)` when the blocker is this
    /// entry's own earlier slice, whose eventual issue already
    /// reschedules the entry. Equivalent to `slice_can_issue` followed by
    /// `slice_block`, but walks the dependence columns once instead of
    /// twice.
    pub(crate) fn slice_gate(&self, idx: usize, k: usize) -> Result<(), Option<Block>> {
        debug_assert!(self.window.issued(idx, k).is_unset());
        let slice_class = self.window.slice_class(idx);
        let in_order_gate = match slice_class {
            SliceClass::CarryChained | SliceClass::CrossSlice => k > 0,
            SliceClass::Independent => !self.cfg.opts.ooo_slices && k > 0,
            SliceClass::Atomic => false,
        };
        if in_order_gate {
            let prev = self.window.issued(idx, k - 1);
            if prev.before(self.cycle) {
                // The carry/order edge is satisfied.
            } else if prev.is_set() {
                return Err(Some(Block::Until(self.cycle + 1)));
            } else {
                return Err(None); // cascades off the earlier slice
            }
        }
        let block = match slice_class {
            SliceClass::CarryChained | SliceClass::Independent => self.source_block(idx, k),
            SliceClass::CrossSlice => (0..self.nslices).find_map(|j| self.source_block(idx, j)),
            SliceClass::Atomic => {
                if k != 0 {
                    return Err(None); // only slot 0 ever issues
                }
                (0..self.nslices).find_map(|j| self.source_block(idx, j))
            }
        };
        match block {
            None => Ok(()),
            Some(b) => Err(Some(b)),
        }
    }

    /// Which dependence slot carries a store's *data* operand (rt).
    /// The slot is resolved once at dispatch (see
    /// [`super::window::Window::store_data_slot`]).
    pub(crate) fn store_data_dep(&self, idx: usize) -> Dep {
        self.window.dep(idx, self.window.store_data_slot(idx))
    }

    pub(crate) fn effective_bypass(&self) -> bool {
        match self.cfg.kind {
            PipelineKind::Ideal => false, // single slice; irrelevant
            PipelineKind::SimplePipelined => false,
            PipelineKind::BitSliced => self.cfg.opts.partial_bypass,
        }
    }

    /// Are all slices of every source available by this cycle?
    pub(crate) fn all_sources_ready(&self, idx: usize) -> bool {
        (0..self.nslices).all(|k| self.sources_ready_at_slice(idx, k))
    }

    /// Is slice `k` of every source of `window[idx]` available? (Narrow
    /// producers publish their upper slices early at their own issue, so
    /// no consumer-side special case is needed.)
    pub(crate) fn sources_ready_at_slice(&self, idx: usize, k: usize) -> bool {
        for d in 0..self.window.ndeps(idx) {
            if let Dep::InFlight(pseq) = self.window.dep(idx, d) {
                if let Some(pi) = self.window.index_of(pseq) {
                    if !self.window.result_ready(pi, k).done_by(self.cycle) {
                        return false;
                    }
                }
                // Producer committed → ready.
            }
        }
        true
    }

    /// Record branch resolution (redirect release) once enough slices have
    /// finished. The resolving slice comes from the configured
    /// [`crate::policies::BranchResolvePolicy`].
    pub(crate) fn resolve_branch_if_possible(&mut self, idx: usize) {
        if self.window.resolved_at(idx).is_set() {
            return;
        }
        let Some(ctrl) = self.window.ctrl(idx) else {
            return;
        };
        let nslices = self.nslices;
        let seq = self.window.seq(idx);
        let mispredicted = self.window.mispredicted(idx);
        if matches!(ctrl, CtrlKind::IndirectJump { .. }) {
            // Atomic: resolved one cycle after issue.
            if let Some(c) = self.window.issued(idx, 0).get() {
                self.window.set_resolved_at(idx, CycleSlot::at(c + 1));
                emit!(
                    self,
                    TraceEvent::BranchResolved {
                        seq,
                        at: c + 1,
                        early: false,
                        mispredicted
                    }
                );
            }
            return;
        }
        let CtrlKind::CondBranch(cond) = ctrl else {
            return;
        };

        let cycle = self.cycle;
        let (cmp, taken) = match self.fault.as_mut() {
            Some(f) => {
                // Fault site: flip bits in the operand slices the
                // resolution policy compares (timing-only; the window's
                // architectural record is untouched).
                let mut brec = *self.window.rec(idx);
                brec.src_vals[0] = f.corrupt_operand(seq, cycle, brec.src_vals[0]);
                (I::branch_cmp(&brec), brec.taken)
            }
            None => {
                let rec = self.window.rec(idx);
                (I::branch_cmp(rec), rec.taken)
            }
        };
        let resolve_slice = self.policies.branch.resolve_slice(
            cond,
            cmp,
            taken,
            mispredicted,
            nslices,
            self.slice_bits,
        );

        // With independent equality slices, detection needs only the
        // divergent slice; otherwise every slice up to it.
        let needed_done: Option<u64> = if cond.early_resolvable() {
            self.window.ready(idx, resolve_slice).get()
        } else {
            (0..=resolve_slice)
                .map(|k| self.window.ready(idx, k).get())
                .try_fold(0u64, |acc, r| r.map(|v| acc.max(v)))
        };
        if let Some(done) = needed_done {
            self.window.set_resolved_at(idx, CycleSlot::at(done));
            let early = mispredicted && resolve_slice < nslices - 1;
            if early {
                self.stats.early_branch_resolves += 1;
                // Savings estimate: remaining slices would each have taken
                // at least one more cycle.
                self.stats.early_branch_cycles_saved += (nslices - 1 - resolve_slice) as u64;
            }
            emit!(
                self,
                TraceEvent::BranchResolved {
                    seq,
                    at: done,
                    early,
                    mispredicted
                }
            );
        }
    }

    /// Track when a store's data operand becomes fully available.
    pub(crate) fn update_store_data(&mut self, idx: usize) {
        if !self.window.is_store(idx) {
            return;
        }
        if self.window.store_data_ready(idx).is_set() {
            return;
        }
        let ready = match self.store_data_dep(idx) {
            // Register-file values are read by RF2 at the latest.
            Dep::Ready => Some(self.window.earliest_ex(idx)),
            Dep::InFlight(p) => match self.index_of(p) {
                Some(pi) => self.window.result_ready_full(pi, self.nslices).get(),
                None => Some(self.cycle),
            },
        };
        if let Some(r) = ready {
            if r <= self.cycle {
                self.window.set_store_data_ready(idx, r.max(1));
            }
        }
    }

    /// Mark the entry complete when every obligation is met.
    pub(crate) fn finish_if_done(&mut self, idx: usize) {
        let nslices = self.nslices;
        if self.window.completed_at(idx).is_set() {
            return;
        }
        let mut done = 0u64;
        for k in 0..nslices {
            let r = self.window.ready(idx, k);
            if r.is_unset() {
                return;
            }
            done = done.max(r.value());
        }
        if self.window.is_mem(idx) {
            let r = if self.window.is_load(idx) {
                self.window.mem_data_ready(idx)
            } else {
                self.window.store_data_ready(idx)
            };
            if r.is_unset() {
                return;
            }
            done = done.max(r.value());
        }
        if self.window.is_control(idx) {
            let r = self.window.resolved_at(idx);
            if r.is_unset() {
                return;
            }
            done = done.max(r.value());
        }
        let seq = self.window.seq(idx);
        self.window.set_completed_at(idx, CycleSlot::at(done));
        emit!(self, TraceEvent::Completed { seq, at: done });
    }
}

#[cfg(test)]
mod tests {
    use super::value_is_narrow;
    use crate::config::{MachineConfig, Optimizations};
    use crate::pipeline::testutil::{dependent_chain, run_cfg};
    use crate::sim::Simulator;
    use popk_isa::asm::assemble;

    #[test]
    fn narrowness_is_sign_or_zero_extension() {
        assert!(value_is_narrow(0x0000_1234, 16));
        assert!(value_is_narrow(0xffff_8000, 16)); // sign extension
        assert!(!value_is_narrow(0x0001_0000, 16));
        assert!(value_is_narrow(0x7f, 8));
        assert!(!value_is_narrow(0x180, 8));
    }

    #[test]
    fn partial_bypass_recovers_chain_throughput() {
        let sliced = run_cfg(
            &dependent_chain(),
            &MachineConfig::slice2(Optimizations::level(1)),
        );
        let ideal = run_cfg(&dependent_chain(), &MachineConfig::ideal());
        let ratio = sliced.ipc() / ideal.ipc();
        assert!(
            ratio > 0.9,
            "partial bypassing should restore back-to-back chains, ratio {ratio}"
        );
    }

    #[test]
    fn early_branch_resolution_helps_slice4() {
        let src = r#"
            .text
            main:
                li r8, 2000
            loop:
                andi r9, r8, 1
                beq r9, r0, even    # alternates: mispredicts, detectable at bit 0
                nop
            even:
                addiu r8, r8, -1
                bne r8, r0, loop
                li r2, 0
                syscall
        "#;
        let without = run_cfg(src, &MachineConfig::slice4(Optimizations::level(2)));
        let with = run_cfg(src, &MachineConfig::slice4(Optimizations::level(3)));
        assert!(with.early_branch_resolves > 0);
        assert!(
            with.cycles <= without.cycles,
            "early branch resolution must not slow the machine"
        );
    }

    #[test]
    fn narrow_operands_wake_upper_slices_early() {
        // Small values everywhere: upper slices are implied by slice 0,
        // so branches resolve sooner.
        let src = r#"
            .text
            main:
                li r8, 3000
            loop:
                addiu r9, r8, 0
                andi r10, r9, 3
                bne r10, r0, skip
                addiu r9, r9, 1
            skip:
                addiu r8, r8, -1
                bgtz r8, loop
                li r2, 0
                syscall
        "#;
        let base = MachineConfig::slice4(Optimizations::level(5));
        let mut narrow = base;
        narrow.opts.narrow_operands = true;
        let without = run_cfg(src, &base);
        let with = run_cfg(src, &narrow);
        assert!(
            with.narrow_wakeups > 1000,
            "wakeups: {}",
            with.narrow_wakeups
        );
        assert!(
            with.cycles <= without.cycles,
            "narrow relaxation must not hurt: {} vs {}",
            with.cycles,
            without.cycles
        );
        assert_eq!(with.committed, without.committed);
    }

    #[test]
    fn carry_chain_staggers_slices_in_order() {
        // On the slice-by-4 machine, an add's four slices must issue on
        // strictly increasing cycles (the carry edge of Fig. 8b), and the
        // results must stream out one cycle behind each issue.
        let src = r#"
            .text
            main:
                li r8, 123
                li r9, 77
                addu r10, r8, r9
                addu r11, r10, r9
                li r2, 0
                syscall
        "#;
        let p = assemble(src).unwrap();
        let mut sim = Simulator::new(&MachineConfig::slice4_full());
        let (_, timings) = sim.run_timeline(&p, 1_000, 16);
        let addu = timings
            .iter()
            .find(|t| t.disasm.starts_with("addu r10"))
            .expect("addu recorded");
        let issues: Vec<u64> = addu.slice_issue.iter().flatten().copied().collect();
        assert_eq!(issues.len(), 4);
        for w in issues.windows(2) {
            assert!(w[0] < w[1], "carry chain must stagger: {issues:?}");
        }
        for (k, issue) in issues.iter().enumerate() {
            assert_eq!(addu.slice_ready[k], Some(issue + 1));
        }
        // The dependent addu chains one cycle behind, slice for slice.
        let dep = timings
            .iter()
            .find(|t| t.disasm.starts_with("addu r11"))
            .expect("dependent addu recorded");
        let dep_issues: Vec<u64> = dep.slice_issue.iter().flatten().copied().collect();
        for (k, di) in dep_issues.iter().enumerate() {
            assert!(
                *di > issues[k],
                "slice {k} of the consumer ran before its source: {dep_issues:?} vs {issues:?}"
            );
        }
    }
}
