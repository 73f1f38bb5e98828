//! The hybrid CPU/FPGA machine: software on the fast simulator, partitioned
//! regions dispatched to a hardware model, with exact cycle accounting
//! across the boundary.
//!
//! [`HybridMachine`] wraps the fast [`Machine`] with *trap points* at the
//! entry pcs of the partitioned regions (realized with
//! [`Machine::set_dispatch_boundaries`] plus a bounded run that stops at
//! watched pcs, so the engine keeps its speed between regions). When control
//! reaches a region entry:
//!
//! 1. the registered [`Accelerator`] is invoked against a read-only view of
//!    the architectural state (registers + memory). A hardware model (the
//!    FSMD executor in `binpart-hwsim`) executes the region's scheduled
//!    datapath against a *copy-on-write overlay* of memory, returning its
//!    cycle count and the exact sequence of stores it performed;
//! 2. the software machine then executes the same region natively — the
//!    architectural oracle. Its registers and memory remain authoritative,
//!    so the hybrid run's final [`Exit`] is bit-identical to a pure-software
//!    run *by construction*; the machine's cycle counter keeps counting, so
//!    the software cycles the region consumed are measured exactly;
//! 3. the two executions are differenced **per invocation**: the hardware's
//!    data-section store sequence must equal the software's (same addresses,
//!    widths, and values, in the same order). Any divergence is counted in
//!    [`KernelStats::store_mismatches`] — this is the architectural
//!    verification of the hardware model, stricter than comparing end
//!    states. Stack stores are left out of the comparison (the
//!    decompiler legitimately removes spills the oracle still performs).
//!
//! Accounting: per kernel, the measured hardware cycles (accelerator clock
//! domain), the measured software cycles the region would have consumed
//! (CPU clock domain — the replaced time), and the invocation count (each
//! one pays the platform's CPU↔FPGA invocation overhead). The caller turns
//! these into hybrid time/energy with `binpart_platform`.

use crate::sim::{
    Exit, Machine, Memory, NullProfiler, Profile, Profiler, RunStop, SimConfig, SimError,
};
use crate::Binary;
use std::fmt;

/// One partitioned region: a contiguous pc range (the code generator lays
/// loop nests out contiguously) entered at a single pc (the loop header).
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Kernel name (diagnostics).
    pub name: String,
    /// First text address of the region.
    pub lo: u32,
    /// Last text address of the region (inclusive).
    pub hi: u32,
    /// The pc that triggers hardware dispatch (the loop header; must lie
    /// within `[lo, hi]`).
    pub entry_pc: u32,
}

impl RegionSpec {
    /// Is `pc` inside the region's range?
    pub fn contains(&self, pc: u32) -> bool {
        pc >= self.lo && pc <= self.hi
    }
}

/// One store performed by the hardware model, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwStore {
    /// Byte address.
    pub addr: u32,
    /// Access width in bytes (1, 2, or 4).
    pub bytes: u8,
    /// Stored value (low `bytes` bytes significant).
    pub value: u32,
}

/// A completed hardware execution of one region invocation.
#[derive(Debug, Clone)]
pub struct HwInvocation {
    /// Hardware cycles the invocation took (accelerator clock domain).
    pub hw_cycles: u64,
    /// Every store the hardware performed, in order (against its memory
    /// overlay — nothing was committed).
    pub stores: Vec<HwStore>,
}

/// What the accelerator did with one invocation request.
#[derive(Debug, Clone)]
pub enum AccelOutcome {
    /// The hardware model executed the region.
    Executed(HwInvocation),
    /// The region could not be dispatched (e.g. an unmappable live-in
    /// binding); the invocation runs in software and is counted as
    /// declined.
    Declined,
    /// The hardware model started but faulted (bad address, cycle-limit).
    /// The invocation runs in software and is counted as a fault.
    Faulted,
}

/// A hardware model that can execute partitioned regions. Implemented by
/// `binpart-hwsim`'s FSMD executor; the trait keeps `binpart-mips` free
/// of CDFG/synthesis dependencies.
pub trait Accelerator {
    /// Executes one invocation of region `region` (index into the
    /// [`HybridMachine`]'s region list) against a read-only view of the
    /// CPU state at region entry. Implementations must not mutate shared
    /// state — stores go into the returned log.
    fn invoke(&mut self, region: usize, regs: &[u32; 32], mem: &Memory) -> AccelOutcome;

    /// The software oracle starts shadowing the invocation of `region` just
    /// passed to [`Accelerator::invoke`] (a hook for timing the oracle
    /// beside the hardware; by default nothing).
    fn shadow_begin(&mut self, region: usize) {
        let _ = region;
    }

    /// The oracle's shadow run of `region` ended, successfully or not.
    fn shadow_end(&mut self, region: usize) {
        let _ = region;
    }
}

/// Software store log: a profiler that records every store's address,
/// width, and value — the software half of the per-invocation HW/SW store
/// differential. All other hooks are empty, so the shadow (oracle) run of
/// a region costs little more than an unprofiled run.
#[derive(Debug, Clone, Default)]
struct StoreLog {
    /// Stores in execution order.
    stores: Vec<HwStore>,
}

impl Profiler for StoreLog {
    fn begin(&mut self, _text_base: u32, _text_len: usize) {}
    #[inline(always)]
    fn on_block(&mut self, _idx: usize, _n: usize, _cyc: u64) {}
    #[inline(always)]
    fn on_taken(&mut self, _idx: usize) {}
    #[inline(always)]
    fn on_store_at(&mut self, addr: u32, bytes: u8, value: u32) {
        self.stores.push(HwStore { addr, bytes, value });
    }
    fn take_profile(&mut self, text_base: u32, _text_len: usize) -> Profile {
        Profile::new(text_base, 0)
    }
}

/// Addresses at or above this are stack traffic and are excluded from the
/// HW/SW store differential: the decompiler legitimately removes stack
/// spill/reload operations (`stack_op_removal`), so the software oracle
/// performs stack stores the hardware never sees.
const STACK_FLOOR: u32 = 0x7000_0000;

/// Do two stores agree on address, width, and the significant bytes of
/// their values?
fn same_store(h: &HwStore, s: &HwStore) -> bool {
    let mask = if h.bytes >= 4 {
        u32::MAX
    } else {
        (1u32 << (8 * h.bytes)) - 1
    };
    h.addr == s.addr && h.bytes == s.bytes && (h.value & mask) == (s.value & mask)
}

/// Measured per-kernel co-simulation statistics.
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Kernel name (from the [`RegionSpec`]).
    pub name: String,
    /// Times control reached the region entry (trap count).
    pub invocations: u64,
    /// Invocations the hardware model executed.
    pub hw_invocations: u64,
    /// Invocations the accelerator declined (ran in software).
    pub declined: u64,
    /// Invocations where the hardware model faulted (ran in software).
    pub faulted: u64,
    /// Total measured hardware cycles (accelerator clock domain), summed
    /// over executed invocations.
    pub hw_cycles: u64,
    /// Measured software cycles of the region over executed invocations —
    /// the CPU time the hardware replaces.
    pub sw_cycles_replaced: u64,
    /// Invocations whose data-section store sequence diverged between
    /// hardware and software. Zero means the hardware model is
    /// architecturally exact on every memory effect it performed.
    pub store_mismatches: u64,
    /// Data-section stores compared (per-invocation sequences, summed).
    pub stores_checked: u64,
    /// The first few divergences, with the invocation index and the first
    /// mismatching store pair (capped at [`MAX_DIVERGENCE_RECORDS`] so an
    /// always-wrong accelerator can't balloon the stats).
    pub divergences: Vec<StoreDivergence>,
}

/// How many [`StoreDivergence`] records a kernel keeps.
pub const MAX_DIVERGENCE_RECORDS: usize = 16;

/// One recorded HW/SW store-sequence divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDivergence {
    /// Which invocation of the region diverged (1-based trap count at the
    /// time of the divergence).
    pub invocation: u64,
    /// Index of the first mismatching store in the compared sequences;
    /// `None` when the sequences differ only in length.
    pub index: Option<usize>,
    /// The hardware store at `index` (`None` = hardware sequence ended).
    pub hw: Option<HwStore>,
    /// The software-oracle store at `index` (`None` = oracle ended).
    pub sw: Option<HwStore>,
}

impl fmt::Display for StoreDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invocation {}", self.invocation)?;
        match self.index {
            Some(i) => write!(f, ", store {i}: ")?,
            None => write!(f, ", sequence lengths differ: ")?,
        }
        match (&self.hw, &self.sw) {
            (Some(h), Some(s)) => write!(
                f,
                "hw [{:#x}]={:#x} vs sw [{:#x}]={:#x}",
                h.addr, h.value, s.addr, s.value
            ),
            (Some(h), None) => write!(f, "hw extra store [{:#x}]={:#x}", h.addr, h.value),
            (None, Some(s)) => write!(f, "hw missing store [{:#x}]={:#x}", s.addr, s.value),
            (None, None) => write!(f, "no store detail"),
        }
    }
}

/// The hybrid run's result: the architectural [`Exit`] (bit-identical to a
/// pure-software run — the software oracle is authoritative) plus the
/// measured co-simulation statistics.
#[derive(Debug, Clone)]
pub struct HybridExit {
    /// Architectural exit state (registers, reason, total cycles/instrs —
    /// the totals are the *software* totals: every region was also executed
    /// by the oracle, so `exit.cycles` equals the pure-software count).
    pub exit: Exit,
    /// Per-kernel measurements, parallel to the region list.
    pub kernels: Vec<KernelStats>,
}

impl HybridExit {
    /// Software cycles spent *outside* hardware-executed regions: total
    /// minus every executed invocation's replaced cycles. This is the CPU
    /// share of the hybrid execution time.
    pub fn sw_cycles_outside(&self) -> u64 {
        let replaced: u64 = self.kernels.iter().map(|k| k.sw_cycles_replaced).sum();
        self.exit.cycles.saturating_sub(replaced)
    }

    /// Total store-sequence mismatches across all kernels.
    pub fn store_mismatches(&self) -> u64 {
        self.kernels.iter().map(|k| k.store_mismatches).sum()
    }

    /// Total hardware-executed invocations across all kernels.
    pub fn hw_invocations(&self) -> u64 {
        self.kernels.iter().map(|k| k.hw_invocations).sum()
    }
}

/// The hybrid CPU/FPGA machine. See the [module docs](self).
#[derive(Debug)]
pub struct HybridMachine {
    machine: Machine,
    regions: Vec<RegionSpec>,
}

impl HybridMachine {
    /// Loads `binary` with trap points at each region's entry pc.
    ///
    /// Regions whose `entry_pc` lies outside their own `[lo, hi]` range are
    /// rejected (they could trap without making progress).
    ///
    /// # Errors
    ///
    /// [`SimError::BadInstruction`] as for [`Machine::with_config`], or a
    /// panic-free filter: malformed regions are dropped.
    pub fn new(
        binary: &Binary,
        sim: SimConfig,
        regions: Vec<RegionSpec>,
    ) -> Result<HybridMachine, SimError> {
        let regions: Vec<RegionSpec> = regions
            .into_iter()
            .filter(|r| r.contains(r.entry_pc))
            .collect();
        let mut machine = Machine::with_config(binary, sim)?;
        // Dispatch boundaries: every entry pc (so the outer watch observes
        // it) and every first-pc-after-region (so fallthrough exits start a
        // dispatch round where the region-exit watch fires).
        let mut pcs: Vec<u32> = Vec::with_capacity(regions.len() * 3);
        for r in &regions {
            pcs.push(r.entry_pc);
            pcs.push(r.lo);
            pcs.push(r.hi.wrapping_add(4));
        }
        machine.set_dispatch_boundaries(&pcs);
        Ok(HybridMachine { machine, regions })
    }

    /// The regions this machine traps on.
    pub fn regions(&self) -> &[RegionSpec] {
        &self.regions
    }

    /// Runs to completion, dispatching region entries to `accel`.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from the software engine (the oracle executes every
    /// region, so hardware faults never abort the run — they are counted).
    pub fn run<A: Accelerator>(&mut self, accel: &mut A) -> Result<HybridExit, SimError> {
        let mut kernels: Vec<KernelStats> = self
            .regions
            .iter()
            .map(|r| KernelStats {
                name: r.name.clone(),
                ..KernelStats::default()
            })
            .collect();
        let mut null = NullProfiler;
        // The oracle's store log, reused (cleared) across invocations.
        let mut log = StoreLog::default();
        let exit = loop {
            // Software between regions, at full block-dispatch speed.
            let regions = &self.regions;
            let stop = self
                .machine
                .run_until(&mut null, |pc| regions.iter().any(|r| r.entry_pc == pc))?;
            let pc = match stop {
                RunStop::Exited(exit) => break *exit,
                RunStop::Trapped { pc } => pc,
            };
            // The trap predicate only fires on region entries, but a
            // hostile region table must not be able to panic the run:
            // an unmatched trap finishes the program in pure software.
            let Some(ri) = self.regions.iter().position(|r| r.entry_pc == pc) else {
                match self.machine.run_until(&mut null, |_| false)? {
                    RunStop::Exited(exit) => break *exit,
                    // Impossible (the watch never fires); re-enter the loop
                    // rather than panic.
                    RunStop::Trapped { .. } => continue,
                }
            };
            kernels[ri].invocations += 1;

            // 1. Hardware model against the pre-region state.
            let outcome = accel.invoke(ri, self.machine.regs(), &self.machine.mem);

            // 2. Software oracle through the region (authoritative state;
            //    measures the replaced CPU cycles exactly).
            let cycles_before = self.machine.cycles();
            let (lo, hi) = (self.regions[ri].lo, self.regions[ri].hi);
            log.stores.clear();
            accel.shadow_begin(ri);
            let shadow = self.machine.run_until(&mut log, |pc| pc < lo || pc > hi);
            accel.shadow_end(ri);
            let shadow = shadow?;
            let replaced = self.machine.cycles() - cycles_before;

            // 3. Per-invocation differential + accounting.
            match outcome {
                AccelOutcome::Executed(hw) => {
                    let k = &mut kernels[ri];
                    k.hw_invocations += 1;
                    k.hw_cycles += hw.hw_cycles;
                    k.sw_cycles_replaced += replaced;
                    let data = |s: &&HwStore| s.addr < STACK_FLOOR;
                    k.stores_checked += log.stores.iter().filter(data).count() as u64;
                    // Walk both data-store sequences in step to the first
                    // difference: a mismatching pair (which has an index),
                    // or the store past the common prefix when one sequence
                    // is a prefix of the other (no index).
                    let mut hw_data = hw.stores.iter().filter(data);
                    let mut sw_data = log.stores.iter().filter(data);
                    let mut at = 0;
                    let divergence = loop {
                        match (hw_data.next(), sw_data.next()) {
                            (None, None) => break None,
                            (Some(h), Some(s)) if same_store(h, s) => at += 1,
                            (Some(h), Some(s)) => break Some((Some(at), Some(*h), Some(*s))),
                            (h, s) => break Some((None, h.copied(), s.copied())),
                        }
                    };
                    if let Some((index, hw, sw)) = divergence {
                        k.store_mismatches += 1;
                        if k.divergences.len() < MAX_DIVERGENCE_RECORDS {
                            k.divergences.push(StoreDivergence {
                                invocation: k.invocations,
                                index,
                                hw,
                                sw,
                            });
                        }
                    }
                }
                AccelOutcome::Declined => kernels[ri].declined += 1,
                AccelOutcome::Faulted => kernels[ri].faulted += 1,
            }

            match shadow {
                RunStop::Exited(exit) => break *exit, // program ended inside the region
                RunStop::Trapped { .. } => continue,
            }
        };
        Ok(HybridExit { exit, kernels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asm, BinaryBuilder, Reg};

    /// A counted loop: v0 = sum 0..n with the loop body at a known label.
    fn loop_binary(n: i32) -> (Binary, u32, u32) {
        let mut a = Asm::new();
        a.li(Reg::T0, 0); // i
        a.li(Reg::V0, 0); // acc
        a.li(Reg::T2, n);
        let head = a.new_label();
        let done = a.new_label();
        a.bind(head);
        let head_off = 3 * 4 + 4; // li(T2) may be 1-2 instrs; recomputed below
        let _ = head_off;
        a.slt(Reg::T3, Reg::T0, Reg::T2);
        a.beq(Reg::T3, Reg::Zero, done);
        a.nop();
        a.addu(Reg::V0, Reg::V0, Reg::T0);
        a.addiu(Reg::T0, Reg::T0, 1);
        a.j(head);
        a.nop();
        a.bind(done);
        a.jr(Reg::Ra);
        a.nop();
        let text = a.finish().expect("assembles");
        let binary = BinaryBuilder::new().text(text).build();
        // The loop head is the 4th instruction when li expands to one op.
        // Find it structurally: the slt is the first slt in text.
        let base = binary.text_base;
        let mut head_pc = 0;
        let mut end_pc = 0;
        for (i, &w) in binary.text.iter().enumerate() {
            if let Ok(instr) = crate::decode(w) {
                if matches!(instr, crate::Instr::Slt { .. }) && head_pc == 0 {
                    head_pc = base + (i as u32) * 4;
                }
                if matches!(instr, crate::Instr::J { .. }) {
                    end_pc = base + (i as u32) * 4 + 4; // delay slot
                }
            }
        }
        (binary, head_pc, end_pc)
    }

    struct CountingAccel {
        calls: u64,
        outcome_cycles: u64,
    }

    impl Accelerator for CountingAccel {
        fn invoke(&mut self, _region: usize, _regs: &[u32; 32], _mem: &Memory) -> AccelOutcome {
            self.calls += 1;
            AccelOutcome::Executed(HwInvocation {
                hw_cycles: self.outcome_cycles,
                stores: Vec::new(),
            })
        }
    }

    #[test]
    fn hybrid_exit_is_bit_identical_to_pure_software() {
        let (binary, head, end) = loop_binary(10);
        let pure = Machine::new(&binary).unwrap().run_unprofiled().unwrap();
        let regions = vec![RegionSpec {
            name: "loop".into(),
            lo: head,
            hi: end,
            entry_pc: head,
        }];
        let mut hm = HybridMachine::new(&binary, SimConfig::default(), regions).unwrap();
        let mut accel = CountingAccel {
            calls: 0,
            outcome_cycles: 13,
        };
        let hx = hm.run(&mut accel).unwrap();
        assert_eq!(hx.exit.regs, pure.regs);
        assert_eq!(hx.exit.reason, pure.reason);
        assert_eq!(hx.exit.cycles, pure.cycles, "oracle executes everything");
        assert_eq!(hx.exit.instrs, pure.instrs);
        assert_eq!(accel.calls, 1, "single loop entry");
        assert_eq!(hx.kernels[0].invocations, 1);
        assert_eq!(hx.kernels[0].hw_cycles, 13);
        assert!(hx.kernels[0].sw_cycles_replaced > 0);
        assert!(hx.sw_cycles_outside() < pure.cycles);
    }

    #[test]
    fn run_until_traps_before_executing_the_watched_pc() {
        let (binary, head, _) = loop_binary(3);
        let mut m = Machine::new(&binary).unwrap();
        m.set_dispatch_boundaries(&[head]);
        let mut prof = NullProfiler;
        match m.run_until(&mut prof, |pc| pc == head).unwrap() {
            RunStop::Trapped { pc } => assert_eq!(pc, head),
            RunStop::Exited(_) => panic!("must trap at the loop head"),
        }
        assert_eq!(m.pc(), head);
        // Resuming with a never-hit watch completes identically to pure SW.
        let pure = Machine::new(&binary).unwrap().run_unprofiled().unwrap();
        match m.run_until(&mut prof, |_| false).unwrap() {
            RunStop::Exited(exit) => {
                assert_eq!(exit.regs, pure.regs);
                assert_eq!(exit.cycles, pure.cycles);
            }
            RunStop::Trapped { .. } => panic!("no watch set"),
        }
    }

    #[test]
    fn declined_invocations_still_run_in_software() {
        struct Decliner;
        impl Accelerator for Decliner {
            fn invoke(&mut self, _r: usize, _regs: &[u32; 32], _m: &Memory) -> AccelOutcome {
                AccelOutcome::Declined
            }
        }
        let (binary, head, end) = loop_binary(5);
        let pure = Machine::new(&binary).unwrap().run_unprofiled().unwrap();
        let regions = vec![RegionSpec {
            name: "loop".into(),
            lo: head,
            hi: end,
            entry_pc: head,
        }];
        let mut hm = HybridMachine::new(&binary, SimConfig::default(), regions).unwrap();
        let hx = hm.run(&mut Decliner).unwrap();
        assert_eq!(hx.exit.regs, pure.regs);
        assert_eq!(hx.kernels[0].declined, 1);
        assert_eq!(hx.kernels[0].hw_invocations, 0);
        assert_eq!(hx.sw_cycles_outside(), pure.cycles, "nothing replaced");
    }

    /// Injected fault: the "hardware" replays the oracle's stores but
    /// corrupts one value. The divergence must be *reported* — kernel
    /// name, invocation index, the offending store — never a panic, and
    /// the architectural exit must stay bit-identical (the oracle is
    /// authoritative).
    /// A loop that stores i into a[i] for i in 0..4 (data section), its
    /// one region, and the data stores the software oracle performs.
    fn store_loop() -> (Binary, Vec<RegionSpec>, Vec<HwStore>) {
        let mut a = Asm::new();
        a.li(Reg::T0, 0); // i
        a.li(Reg::T1, 0x1000_0000u32 as i32); // &a[0] (data base)
        a.li(Reg::T2, 4);
        let head = a.new_label();
        let done = a.new_label();
        a.bind(head);
        a.slt(Reg::T3, Reg::T0, Reg::T2);
        a.beq(Reg::T3, Reg::Zero, done);
        a.nop();
        a.sll(Reg::T4, Reg::T0, 2);
        a.addu(Reg::T4, Reg::T4, Reg::T1);
        a.sw(Reg::T0, 0, Reg::T4);
        a.addiu(Reg::T0, Reg::T0, 1);
        a.j(head);
        a.nop();
        a.bind(done);
        a.jr(Reg::Ra);
        a.nop();
        let text = a.finish().expect("assembles");
        let binary = BinaryBuilder::new().text(text).build();
        let base = binary.text_base;
        let mut head_pc = 0;
        let mut end_pc = 0;
        for (i, &w) in binary.text.iter().enumerate() {
            if let Ok(instr) = crate::decode(w) {
                if matches!(instr, crate::Instr::Slt { .. }) && head_pc == 0 {
                    head_pc = base + (i as u32) * 4;
                }
                if matches!(instr, crate::Instr::J { .. }) {
                    end_pc = base + (i as u32) * 4 + 4;
                }
            }
        }
        let oracle_stores: Vec<HwStore> = (0..4)
            .map(|i| HwStore {
                addr: 0x1000_0000 + 4 * i,
                bytes: 4,
                value: i,
            })
            .collect();
        let regions = vec![RegionSpec {
            name: "store_loop".into(),
            lo: head_pc,
            hi: end_pc,
            entry_pc: head_pc,
        }];
        (binary, regions, oracle_stores)
    }

    /// Returns the same stores on every invocation.
    struct FixedAccel(Vec<HwStore>);

    impl Accelerator for FixedAccel {
        fn invoke(&mut self, _r: usize, _regs: &[u32; 32], _m: &Memory) -> AccelOutcome {
            AccelOutcome::Executed(HwInvocation {
                hw_cycles: 7,
                stores: self.0.clone(),
            })
        }
    }

    /// Sequences that agree on a common prefix but differ in length
    /// diverge with no index, pointing at the store past the prefix;
    /// stack stores take no part in the comparison.
    #[test]
    fn store_sequence_length_mismatch_has_no_index() {
        let (binary, regions, oracle) = store_loop();
        let stack = HwStore {
            addr: STACK_FLOOR + 0x100,
            bytes: 4,
            value: 9,
        };
        let extra = HwStore {
            addr: 0x1000_0010,
            bytes: 4,
            value: 4,
        };
        let short = oracle[..3].to_vec();
        let long: Vec<HwStore> = oracle.iter().copied().chain([extra]).collect();
        let with_stack: Vec<HwStore> = [stack].into_iter().chain(oracle.iter().copied()).collect();
        let cases = [
            (short, 1, None, Some(oracle[3])),
            (long, 1, Some(extra), None),
            (with_stack, 0, None, None),
        ];
        for (stores, mismatches, hw, sw) in cases {
            let mut hm =
                HybridMachine::new(&binary, SimConfig::default(), regions.clone()).unwrap();
            let hx = hm.run(&mut FixedAccel(stores)).unwrap();
            let k = &hx.kernels[0];
            assert_eq!(k.stores_checked, 4, "the oracle's data stores");
            assert_eq!(k.store_mismatches, mismatches);
            match k.divergences.first() {
                Some(d) => {
                    assert_eq!((d.index, d.hw, d.sw), (None, hw, sw));
                    assert!(d.to_string().contains("sequence lengths differ"), "{d}");
                }
                None => assert_eq!(mismatches, 0),
            }
        }
    }

    #[test]
    fn injected_store_fault_is_reported_not_fatal() {
        /// Stores into the data section, then corrupts store `victim`.
        struct CorruptingAccel {
            stores: Vec<HwStore>,
            victim: usize,
        }
        impl Accelerator for CorruptingAccel {
            fn invoke(&mut self, _r: usize, _regs: &[u32; 32], _m: &Memory) -> AccelOutcome {
                let mut stores = self.stores.clone();
                if let Some(s) = stores.get_mut(self.victim) {
                    s.value ^= 0xdead_beef;
                }
                AccelOutcome::Executed(HwInvocation {
                    hw_cycles: 7,
                    stores,
                })
            }
        }

        let (binary, regions, oracle_stores) = store_loop();
        let pure = Machine::new(&binary).unwrap().run_unprofiled().unwrap();
        let mut hm = HybridMachine::new(&binary, SimConfig::default(), regions).unwrap();
        let mut accel = CorruptingAccel {
            stores: oracle_stores,
            victim: 2,
        };
        let hx = hm.run(&mut accel).unwrap();
        assert_eq!(hx.exit.regs, pure.regs, "oracle stays authoritative");
        let k = &hx.kernels[0];
        assert_eq!(k.name, "store_loop");
        assert_eq!(k.store_mismatches, 1, "the corruption must be counted");
        let d = k.divergences.first().expect("divergence recorded");
        assert_eq!(d.invocation, 1, "first (and only) region entry");
        assert_eq!(d.index, Some(2), "the corrupted store's position");
        let hw = d.hw.expect("hw store recorded");
        let sw = d.sw.expect("sw store recorded");
        assert_eq!(sw.value, 2);
        assert_eq!(hw.value, 2 ^ 0xdead_beef);
        assert!(d.to_string().contains("invocation 1"), "{d}");
    }

    /// A hostile region table — entry pc outside its own range — is
    /// filtered at construction; the run completes in pure software, never
    /// panics.
    #[test]
    fn malformed_region_is_dropped_and_run_completes() {
        let (binary, head, end) = loop_binary(5);
        let pure = Machine::new(&binary).unwrap().run_unprofiled().unwrap();
        let regions = vec![RegionSpec {
            name: "bogus".into(),
            lo: head,
            hi: end,
            entry_pc: end.wrapping_add(64), // outside [lo, hi]
        }];
        let mut hm = HybridMachine::new(&binary, SimConfig::default(), regions).unwrap();
        assert!(hm.regions().is_empty(), "malformed region filtered");
        struct NeverCalled;
        impl Accelerator for NeverCalled {
            fn invoke(&mut self, _r: usize, _regs: &[u32; 32], _m: &Memory) -> AccelOutcome {
                panic!("no region should ever dispatch");
            }
        }
        let hx = hm.run(&mut NeverCalled).unwrap();
        assert_eq!(hx.exit.regs, pure.regs);
        assert_eq!(hx.exit.cycles, pure.cycles);
    }
}
