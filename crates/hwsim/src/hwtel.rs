//! Hardware-side telemetry: a zero-cost observation layer over the FSMD
//! executor, mirroring `binpart_telemetry`'s monomorphized design.
//!
//! # Lifecycle
//!
//! [`Fsmd::execute_tel`](crate::Fsmd::execute_tel) is generic over
//! [`HwTelemetry`]. The default sink, [`NullHwTelemetry`], carries
//! `ENABLED = false` and `#[inline(always)]` empty hooks — every probe
//! in the executor sits under `if H::ENABLED`, so the uninstrumented
//! build (the throughput snapshot, the default
//! `StagedFlow::new` flow) compiles to exactly the pre-telemetry machine
//! code. The recording sink, [`HwRecorder`], observes one kernel across
//! its whole co-simulation:
//!
//! 1. [`invocation_begin`](HwTelemetry::invocation_begin) — the
//!    accelerator snapshots the counters so a faulting invocation can be
//!    rolled back (hardware totals must match only *committed* work, the
//!    invocations whose cycles the hybrid machine actually charged).
//! 2. [`state_enter`](HwTelemetry::state_enter) /
//!    [`charge`](HwTelemetry::charge) — per FSM state: occupancy and the
//!    attributed cycle categories ([`HwAttr`]). Every `cycles +=` in the
//!    executor has exactly one matching `charge`, so the categories
//!    sum to the measured cycle count *by construction* — the
//!    attribution-conservation invariant the differential suite asserts.
//! 3. [`bus_read`](HwTelemetry::bus_read) /
//!    [`bus_write`](HwTelemetry::bus_write) /
//!    [`reg_write`](HwTelemetry::reg_write) — the transaction log, the
//!    post-mortem ring, and (first invocation only) the raw wave capture.
//!    Once the capture has closed, `reg_write` returns without touching
//!    the recording.
//! 4. [`invocation_commit`](HwTelemetry::invocation_commit) or
//!    [`invocation_abort`](HwTelemetry::invocation_abort) — keep or roll
//!    back the counters. The last-bus ring and final FSM state
//!    deliberately survive an abort: they are the post-mortem payload.
//!
//! [`HwRecorder::into_profile`] folds the recording into a [`HwProfile`] —
//! the per-kernel report `StagedFlow::cosimulate` attaches to its
//! `CosimReport`, including the analytic attribution
//! ([`crate::Fsmd::analytic_attribution`]) that decomposes
//! measured-vs-estimate error by feature.
//!
//! # VCD export
//!
//! The first invocation of each kernel is captured as raw wave events (at
//! most 4096), and the [`HwProfile`] keeps them raw. [`HwProfile::vcd`]
//! renders them as a Value Change Dump, viewable in GTKWave, only when
//! called — `tables hwprof` and `hybrid_run --vcd-out` do — so a
//! co-simulation that reads only the counters never pays for the text.
//! Every call renders the same bytes. Signals, under module
//! `fsmd`: `state[31:0]` (current FSM block id), `bus_addr[31:0]` /
//! `bus_data[31:0]` (last transaction), `bus_rd` / `bus_wr` (one-tick
//! strobes), and `v<N>[31:0]` for every SSA register the kernel wrote.
//! Timestamps are measured hardware cycles, nudged forward minimally when
//! several datapath events share a control step (VCD time must strictly
//! increase for strobes to be visible).

use crate::fsmd::Fsmd;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Where one attributed hardware cycle went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwAttr {
    /// Steady-state initiation-interval charge of a pipelined loop,
    /// excluding the bus-contention share.
    SteadyII = 0,
    /// Pipeline fill/drain paid once per loop entry.
    FillDrain = 1,
    /// The share of the II forced by memory-port contention:
    /// `II - max(RecMII, ResMII-without-mem)` per iteration.
    BusStall = 2,
    /// Sequential (non-pipelined) block schedules.
    BlockSeq = 3,
}

impl HwAttr {
    /// Number of categories.
    pub const COUNT: usize = 4;

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            HwAttr::SteadyII => "steady_ii",
            HwAttr::FillDrain => "fill_drain",
            HwAttr::BusStall => "bus_stall",
            HwAttr::BlockSeq => "block_seq",
        }
    }
}

/// The FSMD executor's telemetry sink. Monomorphized: with
/// [`NullHwTelemetry`] every probe compiles away (`ENABLED` gates each
/// call site).
pub trait HwTelemetry {
    /// Whether probes are live; `false` removes them at compile time.
    const ENABLED: bool;
    /// One accelerator invocation is starting.
    fn invocation_begin(&self);
    /// The FSM entered `block` at `cycle` (measured cycles so far).
    fn state_enter(&self, cycle: u64, block: u32);
    /// `cycles` measured cycles were charged to `block` under `attr`.
    fn charge(&self, block: u32, attr: HwAttr, cycles: u64);
    /// A datapath op wrote `value` into SSA register `vreg`.
    fn reg_write(&self, cycle: u64, vreg: u32, value: u32);
    /// A load of `bytes` bytes at `addr` returned `value`.
    fn bus_read(&self, cycle: u64, addr: u32, bytes: u8, value: u32);
    /// A store of `bytes` bytes of `value` at `addr` completed.
    fn bus_write(&self, cycle: u64, addr: u32, bytes: u8, value: u32);
    /// The invocation completed; keep its counters.
    fn invocation_commit(&self);
    /// The invocation faulted; roll its counters back (the post-mortem
    /// ring and final state survive).
    fn invocation_abort(&self);
}

/// The disabled sink: no state, no code. This is the default everywhere —
/// `KernelAccel::execute`, `KernelSet`'s `Accelerator` impl, and thus the
/// whole uninstrumented co-simulation path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHwTelemetry;

impl HwTelemetry for NullHwTelemetry {
    const ENABLED: bool = false;
    #[inline(always)]
    fn invocation_begin(&self) {}
    #[inline(always)]
    fn state_enter(&self, _cycle: u64, _block: u32) {}
    #[inline(always)]
    fn charge(&self, _block: u32, _attr: HwAttr, _cycles: u64) {}
    #[inline(always)]
    fn reg_write(&self, _cycle: u64, _vreg: u32, _value: u32) {}
    #[inline(always)]
    fn bus_read(&self, _cycle: u64, _addr: u32, _bytes: u8, _value: u32) {}
    #[inline(always)]
    fn bus_write(&self, _cycle: u64, _addr: u32, _bytes: u8, _value: u32) {}
    #[inline(always)]
    fn invocation_commit(&self) {}
    #[inline(always)]
    fn invocation_abort(&self) {}
}

impl<H: HwTelemetry> HwTelemetry for &H {
    const ENABLED: bool = H::ENABLED;
    #[inline(always)]
    fn invocation_begin(&self) {
        (**self).invocation_begin();
    }
    #[inline(always)]
    fn state_enter(&self, cycle: u64, block: u32) {
        (**self).state_enter(cycle, block);
    }
    #[inline(always)]
    fn charge(&self, block: u32, attr: HwAttr, cycles: u64) {
        (**self).charge(block, attr, cycles);
    }
    #[inline(always)]
    fn reg_write(&self, cycle: u64, vreg: u32, value: u32) {
        (**self).reg_write(cycle, vreg, value);
    }
    #[inline(always)]
    fn bus_read(&self, cycle: u64, addr: u32, bytes: u8, value: u32) {
        (**self).bus_read(cycle, addr, bytes, value);
    }
    #[inline(always)]
    fn bus_write(&self, cycle: u64, addr: u32, bytes: u8, value: u32) {
        (**self).bus_write(cycle, addr, bytes, value);
    }
    #[inline(always)]
    fn invocation_commit(&self) {
        (**self).invocation_commit();
    }
    #[inline(always)]
    fn invocation_abort(&self) {
        (**self).invocation_abort();
    }
}

/// One logged bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTxn {
    /// `true` for a store, `false` for a load.
    pub write: bool,
    /// Byte address.
    pub addr: u32,
    /// Access width in bytes (1, 2, or 4).
    pub bytes: u8,
    /// The value transferred.
    pub value: u32,
    /// Measured cycle of the owning control step.
    pub cycle: u64,
}

impl std::fmt::Display for BusTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@{:#010x} w{} ={:#x} c{}",
            if self.write { "W" } else { "R" },
            self.addr,
            self.bytes,
            self.value,
            self.cycle
        )
    }
}

/// Per-category attributed cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwAttribution {
    /// Steady-state II charges (bus share excluded).
    pub steady_ii: u64,
    /// Pipeline fill/drain.
    pub fill_drain: u64,
    /// Memory-bus contention share of pipelined iterations.
    pub bus_stall: u64,
    /// Sequential block schedules.
    pub block_seq: u64,
}

impl HwAttribution {
    /// Sum over all categories — equals measured cycles exactly for the
    /// measured attribution, and the analytic `hw_cycles` estimate (up to
    /// its `max(1)` floor) for the analytic one.
    pub fn total(&self) -> u64 {
        self.steady_ii + self.fill_drain + self.bus_stall + self.block_seq
    }
}

/// The per-kernel hardware profile `StagedFlow::cosimulate` reports.
#[derive(Debug, Clone)]
pub struct HwProfile {
    /// Invocations started.
    pub invocations: u64,
    /// Invocations that completed (their cycles are in the totals).
    pub committed: u64,
    /// Invocations rolled back after a fault.
    pub aborted: u64,
    /// Total measured hardware cycles over committed invocations; equals
    /// both the per-state and the per-category sums exactly.
    pub measured_cycles: u64,
    /// Cycle occupancy per FSM state (block id, cycles), nonzero entries
    /// only, block order.
    pub state_cycles: Vec<(u32, u64)>,
    /// Executions per block (block id, count), nonzero entries only.
    pub block_execs: Vec<(u32, u64)>,
    /// Measured cycles split by [`HwAttr`] category.
    pub attributed: HwAttribution,
    /// The same split predicted analytically from schedule tables and
    /// profile counts — the calibration reference. Per-feature differences
    /// against `attributed` decompose the estimate error.
    pub analytic: HwAttribution,
    /// Committed load transactions.
    pub bus_reads: u64,
    /// Committed store transactions.
    pub bus_writes: u64,
    /// Words touched by committed loads.
    pub bus_read_words: u64,
    /// Words touched by committed stores.
    pub bus_write_words: u64,
    /// One-time BRAM migration transfer, words (0 when the kernel's data
    /// stays on the shared bus); filled in by the co-simulation driver.
    pub bram_transfer_words: u64,
    /// Distinct FSM states that executed at least once.
    pub states_executed: usize,
    /// FSM states in the kernel (region blocks).
    pub states_total: usize,
    /// Ring of the most recent bus transactions, oldest first (survives
    /// aborted invocations — the hardware post-mortem).
    pub last_bus: Vec<BusTxn>,
    /// The last FSM state entered (post-mortem).
    pub final_state: Option<u32>,
    /// The first invocation's wave, kept raw for [`HwProfile::vcd`].
    wave: Wave,
}

impl HwProfile {
    /// The first invocation's waveform as a Value Change Dump, rendered
    /// from the captured wave on every call (`None` when no invocation
    /// was captured). See the [module docs](self) for the signals.
    pub fn vcd(&self) -> Option<String> {
        (!self.wave.events.is_empty()).then(|| render_vcd(&self.wave.events, self.wave.truncated))
    }

    /// Executed-state fraction, 0..=1 (1.0 for an empty kernel).
    pub fn state_coverage(&self) -> f64 {
        if self.states_total == 0 {
            return 1.0;
        }
        self.states_executed as f64 / self.states_total as f64
    }

    /// Bus-stall share of measured cycles, percent.
    pub fn bus_stall_pct(&self) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        100.0 * self.attributed.bus_stall as f64 / self.measured_cycles as f64
    }

    /// Fill/drain share of measured cycles, percent.
    pub fn fill_overhead_pct(&self) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        100.0 * self.attributed.fill_drain as f64 / self.measured_cycles as f64
    }
}

/// Capacity of the last-bus post-mortem ring.
const LAST_BUS_CAP: usize = 16;
/// Wave-event budget for the first-invocation VCD capture.
const WAVE_EVENT_CAP: usize = 4096;

#[derive(Debug, Clone, Copy)]
enum WaveEvent {
    State { cycle: u64, block: u32 },
    Reg { cycle: u64, vreg: u32, value: u32 },
    Read { cycle: u64, addr: u32, value: u32 },
    Write { cycle: u64, addr: u32, value: u32 },
}

impl WaveEvent {
    fn cycle(&self) -> u64 {
        match *self {
            WaveEvent::State { cycle, .. }
            | WaveEvent::Reg { cycle, .. }
            | WaveEvent::Read { cycle, .. }
            | WaveEvent::Write { cycle, .. } => cycle,
        }
    }
}

/// A captured first-invocation wave.
#[derive(Debug, Clone, Default)]
struct Wave {
    events: Vec<WaveEvent>,
    /// The capture hit [`WAVE_EVENT_CAP`] and stopped early.
    truncated: bool,
}

#[derive(Debug, Default)]
struct Snapshot {
    state_cycles: Vec<u64>,
    block_execs: Vec<u64>,
    attr: [u64; HwAttr::COUNT],
    bus_reads: u64,
    bus_writes: u64,
    bus_read_words: u64,
    bus_write_words: u64,
}

#[derive(Debug)]
struct RecInner {
    state_cycles: Vec<u64>,
    block_execs: Vec<u64>,
    attr: [u64; HwAttr::COUNT],
    bus_reads: u64,
    bus_writes: u64,
    bus_read_words: u64,
    bus_write_words: u64,
    invocations: u64,
    committed: u64,
    aborted: u64,
    snap: Snapshot,
    last_bus: VecDeque<BusTxn>,
    final_state: Option<u32>,
    wave: Wave,
}

/// The recording [`HwTelemetry`] sink: one per kernel, single-threaded
/// (interior mutability via `RefCell` — the hybrid machine invokes
/// accelerators from one thread).
#[derive(Debug)]
pub struct HwRecorder {
    inner: RefCell<RecInner>,
    /// Whether the wave capture is open. Kept outside the `RefCell` so the
    /// per-op [`HwTelemetry::reg_write`] hook can return without borrowing.
    wave_live: Cell<bool>,
}

impl HwRecorder {
    /// A recorder for a kernel whose function has `nblocks` blocks.
    pub fn new(nblocks: usize) -> HwRecorder {
        HwRecorder {
            inner: RefCell::new(RecInner {
                state_cycles: vec![0; nblocks],
                block_execs: vec![0; nblocks],
                attr: [0; HwAttr::COUNT],
                bus_reads: 0,
                bus_writes: 0,
                bus_read_words: 0,
                bus_write_words: 0,
                invocations: 0,
                committed: 0,
                aborted: 0,
                snap: Snapshot::default(),
                last_bus: VecDeque::with_capacity(LAST_BUS_CAP),
                final_state: None,
                wave: Wave::default(),
            }),
            wave_live: Cell::new(false),
        }
    }

    fn push_bus(inner: &mut RecInner, txn: BusTxn) {
        if inner.last_bus.len() == LAST_BUS_CAP {
            inner.last_bus.pop_front();
        }
        inner.last_bus.push_back(txn);
        post_mortem_push(txn);
    }

    fn push_wave(&self, inner: &mut RecInner, ev: WaveEvent) {
        if !self.wave_live.get() {
            return;
        }
        if inner.wave.events.len() >= WAVE_EVENT_CAP {
            inner.wave.truncated = true;
            self.wave_live.set(false);
            return;
        }
        inner.wave.events.push(ev);
    }

    /// Folds the recording into a [`HwProfile`], taking the analytic
    /// attribution and state count from the kernel's compiled FSMD. The
    /// captured wave moves into the profile unrendered.
    pub fn into_profile(self, fsmd: &Fsmd<'_>) -> HwProfile {
        let inner = self.inner.into_inner();
        let nonzero = |counts: &[u64]| -> Vec<(u32, u64)> {
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(b, &c)| (b as u32, c))
                .collect()
        };
        let state_cycles = nonzero(&inner.state_cycles);
        let block_execs = nonzero(&inner.block_execs);
        HwProfile {
            invocations: inner.invocations,
            committed: inner.committed,
            aborted: inner.aborted,
            measured_cycles: inner.state_cycles.iter().sum(),
            states_executed: block_execs.len(),
            states_total: fsmd.region_states(),
            state_cycles,
            block_execs,
            attributed: HwAttribution {
                steady_ii: inner.attr[HwAttr::SteadyII as usize],
                fill_drain: inner.attr[HwAttr::FillDrain as usize],
                bus_stall: inner.attr[HwAttr::BusStall as usize],
                block_seq: inner.attr[HwAttr::BlockSeq as usize],
            },
            analytic: fsmd.analytic_attribution(),
            bus_reads: inner.bus_reads,
            bus_writes: inner.bus_writes,
            bus_read_words: inner.bus_read_words,
            bus_write_words: inner.bus_write_words,
            bram_transfer_words: 0,
            last_bus: inner.last_bus.into(),
            final_state: inner.final_state,
            wave: inner.wave,
        }
    }
}

impl HwTelemetry for HwRecorder {
    const ENABLED: bool = true;

    fn invocation_begin(&self) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.snap.state_cycles.clear();
        inner.snap.state_cycles.extend_from_slice(&inner.state_cycles);
        inner.snap.block_execs.clear();
        inner.snap.block_execs.extend_from_slice(&inner.block_execs);
        inner.snap.attr = inner.attr;
        inner.snap.bus_reads = inner.bus_reads;
        inner.snap.bus_writes = inner.bus_writes;
        inner.snap.bus_read_words = inner.bus_read_words;
        inner.snap.bus_write_words = inner.bus_write_words;
        self.wave_live.set(inner.invocations == 0);
        inner.invocations += 1;
    }

    fn state_enter(&self, cycle: u64, block: u32) {
        let mut inner = self.inner.borrow_mut();
        if let Some(e) = inner.block_execs.get_mut(block as usize) {
            *e += 1;
        }
        inner.final_state = Some(block);
        self.push_wave(&mut inner, WaveEvent::State { cycle, block });
        post_mortem_state(block);
    }

    fn charge(&self, block: u32, attr: HwAttr, cycles: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(c) = inner.state_cycles.get_mut(block as usize) {
            *c += cycles;
        }
        inner.attr[attr as usize] += cycles;
    }

    fn reg_write(&self, cycle: u64, vreg: u32, value: u32) {
        if self.wave_live.get() {
            self.push_wave(&mut self.inner.borrow_mut(), WaveEvent::Reg { cycle, vreg, value });
        }
    }

    fn bus_read(&self, cycle: u64, addr: u32, bytes: u8, value: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.bus_reads += 1;
        inner.bus_read_words += u64::from(bytes.div_ceil(4).max(1));
        Self::push_bus(
            &mut inner,
            BusTxn { write: false, addr, bytes, value, cycle },
        );
        self.push_wave(&mut inner, WaveEvent::Read { cycle, addr, value });
    }

    fn bus_write(&self, cycle: u64, addr: u32, bytes: u8, value: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.bus_writes += 1;
        inner.bus_write_words += u64::from(bytes.div_ceil(4).max(1));
        Self::push_bus(
            &mut inner,
            BusTxn { write: true, addr, bytes, value, cycle },
        );
        self.push_wave(&mut inner, WaveEvent::Write { cycle, addr, value });
    }

    fn invocation_commit(&self) {
        self.inner.borrow_mut().committed += 1;
        self.wave_live.set(false);
    }

    fn invocation_abort(&self) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.state_cycles.copy_from_slice(&inner.snap.state_cycles);
        inner.block_execs.copy_from_slice(&inner.snap.block_execs);
        inner.attr = inner.snap.attr;
        inner.bus_reads = inner.snap.bus_reads;
        inner.bus_writes = inner.snap.bus_writes;
        inner.bus_read_words = inner.snap.bus_read_words;
        inner.bus_write_words = inner.snap.bus_write_words;
        inner.aborted += 1;
        self.wave_live.set(false);
    }
}

// ---------------------------------------------------------------- VCD ----

/// VCD identifier code for signal `idx`: printable ASCII, base 94 from '!'.
fn vcd_id(mut idx: usize) -> String {
    let mut id = String::new();
    loop {
        id.push((b'!' + (idx % 94) as u8) as char);
        idx /= 94;
        if idx == 0 {
            break;
        }
    }
    id
}

// Signal slots of a rendered VCD: the fixed signals in declaration order,
// then one slot per written vreg from `SIG_VREGS` on.
const SIG_STATE: usize = 0;
const SIG_ADDR: usize = 1;
const SIG_DATA: usize = 2;
const SIG_RD: usize = 3;
const SIG_WR: usize = 4;
const SIG_VREGS: usize = 5;

/// The 1-bit strobes dump as `0`/`1`; every other signal is a 32-bit vector.
fn is_strobe(sig: usize) -> bool {
    sig == SIG_RD || sig == SIG_WR
}

/// Emits value changes: skips a value equal to the signal's last one and
/// opens each timestamp once.
struct VcdWriter {
    out: String,
    ids: Vec<String>,
    /// Last emitted value per signal slot (`None` until its first change,
    /// so the first emission is never skipped).
    last: Vec<Option<u32>>,
    open_ts: Option<u64>,
}

impl VcdWriter {
    fn emit(&mut self, ts: u64, sig: usize, val: u32) {
        if self.last[sig] == Some(val) {
            return;
        }
        if self.open_ts != Some(ts) {
            let _ = writeln!(self.out, "#{ts}");
            self.open_ts = Some(ts);
        }
        let id = &self.ids[sig];
        let _ = if is_strobe(sig) {
            writeln!(self.out, "{val}{id}")
        } else {
            writeln!(self.out, "b{val:b} {id}")
        };
        self.last[sig] = Some(val);
    }

    fn bus(&mut self, ts: u64, strobe: usize, addr: u32, value: u32) {
        self.emit(ts, SIG_ADDR, addr);
        self.emit(ts, SIG_DATA, value);
        self.emit(ts, strobe, 1);
    }

    fn clear_strobes(&mut self, ts: u64) {
        self.emit(ts, SIG_RD, 0);
        self.emit(ts, SIG_WR, 0);
    }
}

/// Renders a recorded first-invocation wave as a Value Change Dump.
fn render_vcd(events: &[WaveEvent], truncated: bool) -> String {
    // Fixed signals, then one vector per distinct written vreg.
    let mut vregs: Vec<u32> = events
        .iter()
        .filter_map(|e| match *e {
            WaveEvent::Reg { vreg, .. } => Some(vreg),
            _ => None,
        })
        .collect();
    vregs.sort_unstable();
    vregs.dedup();
    let ids: Vec<String> = (0..SIG_VREGS + vregs.len()).map(vcd_id).collect();

    let mut out = String::with_capacity(48 * ids.len() + 24 * events.len());
    out.push_str("$comment binpart-hwsim FSMD first-invocation waveform $end\n");
    if truncated {
        let _ = writeln!(out, "$comment wave truncated at {WAVE_EVENT_CAP} events $end");
    }
    out.push_str("$timescale 1ns $end\n$scope module fsmd $end\n");
    let fixed = [
        ("32", "state [31:0]"),
        ("32", "bus_addr [31:0]"),
        ("32", "bus_data [31:0]"),
        ("1", "bus_rd"),
        ("1", "bus_wr"),
    ];
    for (id, (width, name)) in ids.iter().zip(fixed) {
        let _ = writeln!(out, "$var wire {width} {id} {name} $end");
    }
    for (id, v) in ids[SIG_VREGS..].iter().zip(&vregs) {
        let _ = writeln!(out, "$var wire 32 {id} v{v} [31:0] $end");
    }
    out.push_str("$upscope $end\n$enddefinitions $end\n$dumpvars\n");
    for (sig, id) in ids.iter().enumerate() {
        let _ = if is_strobe(sig) {
            writeln!(out, "0{id}")
        } else {
            writeln!(out, "bx {id}")
        };
    }
    out.push_str("$end\n");

    // Timeline: timestamps are measured cycles, nudged forward so every
    // event gets a strictly later tick than the previous one (several
    // datapath events share a control step; strobes need distinct ticks).
    let last = vec![None; ids.len()];
    let mut w = VcdWriter { out, ids, last, open_ts: None };
    let mut t: u64 = 0;
    let mut pending_clear: Option<u64> = None;
    for (i, ev) in events.iter().enumerate() {
        t = if i == 0 { ev.cycle() } else { ev.cycle().max(t + 1) };
        if let Some(ct) = pending_clear.take() {
            w.clear_strobes(ct.min(t)); // never in the future of the current tick
        }
        match *ev {
            WaveEvent::State { block, .. } => w.emit(t, SIG_STATE, block),
            WaveEvent::Reg { vreg, value, .. } => {
                let slot = vregs.binary_search(&vreg).unwrap_or(0);
                w.emit(t, SIG_VREGS + slot, value);
            }
            WaveEvent::Read { addr, value, .. } => {
                w.bus(t, SIG_RD, addr, value);
                pending_clear = Some(t + 1);
            }
            WaveEvent::Write { addr, value, .. } => {
                w.bus(t, SIG_WR, addr, value);
                pending_clear = Some(t + 1);
            }
        }
    }
    if let Some(ct) = pending_clear {
        w.clear_strobes(ct.max(t + 1));
    }
    w.out
}

// ------------------------------------------------- hardware post-mortem --

const PM_RING_CAP: usize = 8;

#[derive(Debug)]
struct PmState {
    state: Option<u32>,
    ring: VecDeque<BusTxn>,
}

thread_local! {
    static HW_PM: RefCell<PmState> = const {
        RefCell::new(PmState { state: None, ring: VecDeque::new() })
    };
}

fn post_mortem_state(block: u32) {
    HW_PM.with(|pm| pm.borrow_mut().state = Some(block));
}

fn post_mortem_push(txn: BusTxn) {
    HW_PM.with(|pm| {
        let mut pm = pm.borrow_mut();
        if pm.ring.len() == PM_RING_CAP {
            pm.ring.pop_front();
        }
        pm.ring.push_back(txn);
    });
}

/// Clears this thread's hardware post-mortem (call before each isolated
/// pipeline run, e.g. per torture mutant).
pub fn clear_post_mortem() {
    HW_PM.with(|pm| {
        let mut pm = pm.borrow_mut();
        pm.state = None;
        pm.ring.clear();
    });
}

/// The hardware post-mortem for this thread, if any instrumented FSMD
/// execution has happened since the last [`clear_post_mortem`]: the
/// current (last-entered) FSM state and the most recent bus transactions,
/// oldest first. Written only by [`HwRecorder`] — the uninstrumented path
/// never touches it.
pub fn post_mortem_context() -> Option<String> {
    HW_PM.with(|pm| {
        let pm = pm.borrow();
        let state = pm.state?;
        let mut s = format!("fsm state B{state}");
        if !pm.ring.is_empty() {
            s.push_str(" | bus [");
            for (i, txn) in pm.ring.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{txn}");
            }
            s.push(']');
        }
        Some(s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_telemetry_is_disabled_and_stateless() {
        const { assert!(!NullHwTelemetry::ENABLED) };
        const { assert!(!<&NullHwTelemetry as HwTelemetry>::ENABLED) };
        assert_eq!(std::mem::size_of::<NullHwTelemetry>(), 0);
    }

    #[test]
    fn recorder_commit_keeps_and_abort_rolls_back() {
        let rec = HwRecorder::new(4);
        rec.invocation_begin();
        rec.state_enter(0, 1);
        rec.charge(1, HwAttr::BlockSeq, 3);
        rec.bus_read(3, 0x100, 4, 7);
        rec.invocation_commit();
        rec.invocation_begin();
        rec.state_enter(3, 2);
        rec.charge(2, HwAttr::SteadyII, 100);
        rec.bus_write(5, 0x200, 4, 9);
        rec.invocation_abort();
        let inner = rec.inner.borrow();
        assert_eq!(inner.attr[HwAttr::BlockSeq as usize], 3);
        assert_eq!(inner.attr[HwAttr::SteadyII as usize], 0, "aborted work rolled back");
        assert_eq!(inner.bus_reads, 1);
        assert_eq!(inner.bus_writes, 0, "aborted store rolled back");
        assert_eq!(inner.state_cycles[1], 3);
        assert_eq!(inner.state_cycles[2], 0);
        // The post-mortem payload survives the abort.
        assert_eq!(inner.final_state, Some(2));
        assert_eq!(inner.last_bus.len(), 2);
        assert!(inner.last_bus[1].write);
    }

    #[test]
    fn post_mortem_survives_and_clears() {
        clear_post_mortem();
        assert!(post_mortem_context().is_none());
        let rec = HwRecorder::new(2);
        rec.invocation_begin();
        rec.state_enter(0, 1);
        rec.bus_write(2, 0x44, 4, 5);
        rec.invocation_abort();
        let pm = post_mortem_context().unwrap();
        assert!(pm.contains("fsm state B1"), "{pm}");
        assert!(pm.contains("W@0x00000044"), "{pm}");
        clear_post_mortem();
        assert!(post_mortem_context().is_none());
    }

    #[test]
    fn bus_rings_keep_the_most_recent_transactions_oldest_first() {
        clear_post_mortem();
        let rec = HwRecorder::new(1);
        rec.invocation_begin();
        rec.state_enter(0, 0);
        for i in 0..40u32 {
            rec.bus_read(u64::from(i), 4 * i, 4, i);
        }
        rec.invocation_commit();
        let kept: Vec<u32> = rec.inner.borrow().last_bus.iter().map(|t| t.value).collect();
        assert_eq!(kept, (40 - LAST_BUS_CAP as u32..40).collect::<Vec<_>>());
        let pm = post_mortem_context().unwrap();
        assert!(pm.starts_with("fsm state B0 | bus [R@0x00000080"), "{pm}");
        assert_eq!(pm.matches("R@").count(), PM_RING_CAP, "{pm}");
        clear_post_mortem();
    }

    #[test]
    fn vcd_ids_are_printable_and_unique() {
        let ids: Vec<String> = (0..200).map(vcd_id).collect();
        for id in &ids {
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)), "{id:?}");
        }
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    /// Asserts every `#<ts>` line is strictly later than the one before.
    fn assert_timestamps_increase(vcd: &str) {
        let mut prev: Option<u64> = None;
        for line in vcd.lines() {
            if let Some(ts) = line.strip_prefix('#') {
                let ts: u64 = ts.parse().unwrap();
                if let Some(p) = prev {
                    assert!(ts > p, "timestamps must strictly increase: {vcd}");
                }
                prev = Some(ts);
            }
        }
    }

    #[test]
    fn vcd_timeline_is_strictly_increasing_with_strobe_clears() {
        let events = vec![
            WaveEvent::State { cycle: 0, block: 1 },
            WaveEvent::Read { cycle: 0, addr: 0x10, value: 3 },
            WaveEvent::Read { cycle: 0, addr: 0x14, value: 4 },
            WaveEvent::State { cycle: 5, block: 2 },
            WaveEvent::Write { cycle: 5, addr: 0x18, value: 9 },
        ];
        let vcd = render_vcd(&events, false);
        assert_timestamps_increase(&vcd);
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.matches("$var wire").count() >= 5);
        // The read strobe rises and falls again.
        let rd_id = vcd_id(3);
        assert!(vcd.contains(&format!("1{rd_id}")));
        assert!(vcd.contains(&format!("0{rd_id}")));
    }

    #[test]
    fn wave_capture_truncates_at_the_event_cap() {
        let rec = HwRecorder::new(2);
        rec.invocation_begin();
        for i in 0..3000u64 {
            rec.state_enter(2 * i, (i % 2) as u32);
            rec.reg_write(2 * i, 7, i as u32);
        }
        rec.invocation_commit();
        let inner = rec.inner.into_inner();
        assert_eq!(inner.block_execs.iter().sum::<u64>(), 3000, "counters see every event");
        assert!(inner.wave.truncated);
        assert_eq!(inner.wave.events.len(), WAVE_EVENT_CAP);
        let vcd = render_vcd(&inner.wave.events, inner.wave.truncated);
        assert!(vcd.contains("$comment wave truncated at 4096 events $end"));
        assert_timestamps_increase(&vcd);
    }
}
