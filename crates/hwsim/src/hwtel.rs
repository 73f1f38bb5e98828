//! Hardware-side telemetry: a zero-cost observation layer over the FSMD
//! executor, mirroring `binpart_telemetry`'s monomorphized design.
//!
//! # Lifecycle
//!
//! [`Fsmd::execute_tel`](crate::Fsmd::execute_tel) is generic over
//! [`HwTelemetry`]. The default sink, [`NullHwTelemetry`], carries
//! `ENABLED = false`: the executor then keeps no counts and calls no hook,
//! so the uninstrumented build (the throughput snapshot, the default
//! `StagedFlow::new` flow) runs the plain machine. The recording sink,
//! [`HwRecorder`], observes one kernel across its whole co-simulation.
//! The recorder counts; it does not log events. Each invocation goes:
//!
//! 1. [`capture_wave`](HwTelemetry::capture_wave) — whether this
//!    invocation keeps its raw wave (the recorder keeps only the first).
//! 2. The executor counts into an [`HwCounts`] of its own while it runs:
//!    per FSM state, times entered and pipelined-loop entries taken there;
//!    the last 16 bus transactions in a fixed ring; the last state
//!    entered; and, when asked, the wave (at most 4096 events).
//! 3. [`invocation_commit`](HwTelemetry::invocation_commit) or
//!    [`invocation_abort`](HwTelemetry::invocation_abort) — the sink gets
//!    the counts and adds them to its totals, or discards them after a
//!    fault (hardware totals must match only *committed* work, the
//!    invocations whose cycles the hybrid machine actually charged). The
//!    last-bus ring, the final FSM state and this thread's post-mortem take
//!    the invocation either way: they are the post-mortem payload.
//!
//! [`HwRecorder::into_profile`] derives a [`HwProfile`] from the totals
//! and the compiled FSMD — the per-kernel report
//! `StagedFlow::cosimulate` attaches to its `CosimReport`. Per-state
//! occupancy and the attributed cycle categories ([`HwAttribution`]) are
//! counts × each state's depth, fill, II and bus-stall share, the very
//! numbers the executor adds to its cycle count, so the categories sum to
//! the measured cycles *by construction* — the attribution-conservation
//! invariant the differential suite asserts. Bus transactions and words
//! are counts × each state's loads and stores. The profile also carries
//! the analytic attribution ([`crate::Fsmd::analytic_attribution`]) that
//! decomposes measured-vs-estimate error by feature.
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
use binpart_cdfg::ir::MemWidth;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// The FSMD executor's telemetry sink. Monomorphized: with
/// [`NullHwTelemetry`] the executor keeps no counts (`ENABLED` gates each
/// probe) and never calls a hook.
pub trait HwTelemetry {
    /// Whether the executor records; `false` removes recording at compile
    /// time.
    const ENABLED: bool;
    /// Whether the invocation about to start should capture its raw wave.
    fn capture_wave(&self) -> bool;
    /// The invocation completed; keep its counts.
    fn invocation_commit(&mut self, counts: HwCounts);
    /// The invocation faulted; discard its counts (its last bus
    /// transactions and final state still reach the post-mortem).
    fn invocation_abort(&mut self, counts: HwCounts);
}

/// The disabled sink: no state, no code. This is the default everywhere —
/// `KernelAccel::execute`, `KernelSet`'s `Accelerator` impl, and thus the
/// whole uninstrumented co-simulation path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHwTelemetry;

impl HwTelemetry for NullHwTelemetry {
    const ENABLED: bool = false;
    #[inline(always)]
    fn capture_wave(&self) -> bool {
        false
    }
    #[inline(always)]
    fn invocation_commit(&mut self, _counts: HwCounts) {}
    #[inline(always)]
    fn invocation_abort(&mut self, _counts: HwCounts) {}
}

/// One logged bus transaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// Hardware cycles split by where they went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwAttribution {
    /// Steady-state initiation-interval charges of pipelined loops,
    /// excluding the bus-contention share.
    pub steady_ii: u64,
    /// Pipeline fill/drain, paid once per loop entry.
    pub fill_drain: u64,
    /// The share of the II forced by memory-port contention:
    /// `II - max(RecMII, ResMII-without-mem)` per iteration.
    pub bus_stall: u64,
    /// Sequential (non-pipelined) block schedules.
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
#[derive(Debug, Clone, Default)]
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
    /// Measured cycles split by category.
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

/// What one FSMD invocation observed: counted by the executor while it
/// runs, handed to the sink when it ends (see the [module docs](self)).
#[derive(Debug)]
pub struct HwCounts {
    /// Per region state, in block order: times entered.
    enters: Vec<u64>,
    /// Per region state: pipelined-loop entries taken there.
    loop_entries: Vec<u64>,
    /// The most recent bus transactions: transaction `i` sits at
    /// `i % LAST_BUS_CAP`.
    bus: [BusTxn; LAST_BUS_CAP],
    /// Bus transactions performed.
    bus_count: usize,
    /// Block id of the last state entered.
    final_state: Option<u32>,
    /// Whether `wave` is still capturing.
    capturing: bool,
    wave: Wave,
}

impl HwCounts {
    /// Zeroed counts for `states` region states, capturing the wave when
    /// `wave` is set.
    pub(crate) fn new(states: usize, wave: bool) -> HwCounts {
        HwCounts {
            enters: vec![0; states],
            loop_entries: vec![0; states],
            bus: [BusTxn::default(); LAST_BUS_CAP],
            bus_count: 0,
            final_state: None,
            capturing: wave,
            wave: Wave::default(),
        }
    }

    /// The FSM entered region state `state`, block `block`, at `cycle`.
    #[inline(always)]
    pub(crate) fn state_enter(&mut self, state: usize, block: u32, cycle: u64) {
        self.enters[state] += 1;
        self.final_state = Some(block);
        self.wave(WaveEvent::State { cycle, block });
    }

    /// A pipelined loop was entered at region state `state`.
    #[inline(always)]
    pub(crate) fn loop_enter(&mut self, state: usize) {
        self.loop_entries[state] += 1;
    }

    /// A load or store completed.
    #[inline(always)]
    pub(crate) fn bus(&mut self, write: bool, addr: u32, width: MemWidth, value: u32, cycle: u64) {
        let bytes = width.bytes() as u8;
        let txn = BusTxn {
            write,
            addr,
            bytes,
            value,
            cycle,
        };
        self.bus[self.bus_count % LAST_BUS_CAP] = txn;
        self.bus_count += 1;
    }

    /// Whether the wave is capturing: the executor runs its per-op wave
    /// probes ([`HwCounts::wave_bus`], [`HwCounts::reg_write`]) only then.
    #[inline(always)]
    pub(crate) fn capturing(&self) -> bool {
        self.capturing
    }

    /// The wave event of a load or store.
    #[inline(always)]
    pub(crate) fn wave_bus(&mut self, write: bool, addr: u32, value: u32, cycle: u64) {
        self.wave(if write {
            WaveEvent::Write { cycle, addr, value }
        } else {
            WaveEvent::Read { cycle, addr, value }
        });
    }

    /// A datapath op or phi copy wrote `value` into SSA register `vreg`.
    #[inline(always)]
    pub(crate) fn reg_write(&mut self, cycle: u64, vreg: u32, value: u32) {
        self.wave(WaveEvent::Reg { cycle, vreg, value });
    }

    #[inline(always)]
    fn wave(&mut self, ev: WaveEvent) {
        if self.capturing {
            self.push_wave(ev);
        }
    }

    #[inline(always)]
    fn push_wave(&mut self, ev: WaveEvent) {
        if self.wave.events.len() < WAVE_EVENT_CAP {
            self.wave.events.push(ev);
        } else {
            self.wave.truncated = true;
            self.capturing = false;
        }
    }

    /// The kept bus transactions, oldest first.
    fn last_bus(&self) -> impl Iterator<Item = BusTxn> + '_ {
        let kept = self.bus_count.min(LAST_BUS_CAP);
        (self.bus_count - kept..self.bus_count).map(|i| self.bus[i % LAST_BUS_CAP])
    }
}

/// Appends `txns` to `ring`, dropping the oldest beyond `cap`.
fn push_capped(ring: &mut VecDeque<BusTxn>, cap: usize, txns: impl Iterator<Item = BusTxn>) {
    for txn in txns {
        if ring.len() == cap {
            ring.pop_front();
        }
        ring.push_back(txn);
    }
}

/// Adds `counts` into `totals` element-wise, growing `totals` to fit.
fn add_counts(totals: &mut Vec<u64>, counts: &[u64]) {
    if totals.len() < counts.len() {
        totals.resize(counts.len(), 0);
    }
    for (t, c) in totals.iter_mut().zip(counts) {
        *t += c;
    }
}

/// The recording [`HwTelemetry`] sink: one per kernel, totalling the
/// counts of its committed invocations.
#[derive(Debug, Default)]
pub struct HwRecorder {
    /// Per region state: committed entries, and pipelined-loop entries.
    enters: Vec<u64>,
    loop_entries: Vec<u64>,
    committed: u64,
    aborted: u64,
    last_bus: VecDeque<BusTxn>,
    final_state: Option<u32>,
    /// The first invocation's wave.
    wave: Wave,
}

impl HwRecorder {
    /// Takes what an invocation leaves behind whether or not it committed:
    /// the first invocation's wave, the final state, the last bus
    /// transactions, and this thread's post-mortem.
    fn keep(&mut self, counts: HwCounts) {
        push_capped(&mut self.last_bus, LAST_BUS_CAP, counts.last_bus());
        post_mortem_publish(counts.final_state, counts.last_bus());
        self.final_state = counts.final_state.or(self.final_state);
        if self.committed + self.aborted == 0 {
            self.wave = counts.wave;
        }
    }

    /// Derives a [`HwProfile`] from the committed counts and the kernel's
    /// compiled FSMD (which must be the one the counts came from), with
    /// the analytic attribution and state count. The captured wave moves
    /// into the profile unrendered.
    pub fn into_profile(self, fsmd: &Fsmd<'_>) -> HwProfile {
        let mut p = HwProfile {
            invocations: self.committed + self.aborted,
            committed: self.committed,
            aborted: self.aborted,
            analytic: fsmd.analytic_attribution(),
            states_total: fsmd.region_states(),
            last_bus: self.last_bus.into(),
            final_state: self.final_state,
            wave: self.wave,
            ..HwProfile::default()
        };
        for (i, c) in fsmd.state_costs().enumerate() {
            let n = self.enters.get(i).copied().unwrap_or(0);
            if n == 0 {
                continue;
            }
            let fills = self.loop_entries.get(i).copied().unwrap_or(0);
            let a = HwAttribution {
                steady_ii: n * c.steady_ii,
                fill_drain: fills * c.fill,
                bus_stall: n * c.bus_stall,
                block_seq: n * c.block_seq,
            };
            p.attributed.steady_ii += a.steady_ii;
            p.attributed.fill_drain += a.fill_drain;
            p.attributed.bus_stall += a.bus_stall;
            p.attributed.block_seq += a.block_seq;
            if a.total() > 0 {
                p.state_cycles.push((c.block, a.total()));
            }
            p.block_execs.push((c.block, n));
            p.bus_reads += n * c.loads;
            p.bus_read_words += n * c.load_words;
            p.bus_writes += n * c.stores;
            p.bus_write_words += n * c.store_words;
        }
        p.measured_cycles = p.attributed.total();
        p.states_executed = p.block_execs.len();
        p
    }
}

impl HwTelemetry for HwRecorder {
    const ENABLED: bool = true;

    fn capture_wave(&self) -> bool {
        self.committed + self.aborted == 0
    }

    fn invocation_commit(&mut self, counts: HwCounts) {
        add_counts(&mut self.enters, &counts.enters);
        add_counts(&mut self.loop_entries, &counts.loop_entries);
        self.keep(counts);
        self.committed += 1;
    }

    fn invocation_abort(&mut self, counts: HwCounts) {
        self.keep(counts);
        self.aborted += 1;
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
        let _ = writeln!(
            out,
            "$comment wave truncated at {WAVE_EVENT_CAP} events $end"
        );
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
    let mut w = VcdWriter {
        out,
        ids,
        last,
        open_ts: None,
    };
    let mut t: u64 = 0;
    let mut pending_clear: Option<u64> = None;
    for (i, ev) in events.iter().enumerate() {
        t = if i == 0 {
            ev.cycle()
        } else {
            ev.cycle().max(t + 1)
        };
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

/// Publishes one ended invocation to this thread's post-mortem: its last
/// state entered (if it entered one) and its bus transactions, oldest
/// first.
fn post_mortem_publish(state: Option<u32>, txns: impl Iterator<Item = BusTxn>) {
    HW_PM.with(|pm| {
        let mut pm = pm.borrow_mut();
        pm.state = state.or(pm.state);
        push_capped(&mut pm.ring, PM_RING_CAP, txns);
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
/// invocation has ended since the last [`clear_post_mortem`]: the last FSM
/// state entered and the most recent bus transactions, oldest first.
/// Published by [`HwRecorder`] once per invocation — the uninstrumented
/// path never touches it.
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
    use binpart_cdfg::ir::{Function, MemWidth, Op, Operand, Terminator};

    #[test]
    fn null_telemetry_is_disabled_and_stateless() {
        const { assert!(!NullHwTelemetry::ENABLED) };
        assert!(!NullHwTelemetry.capture_wave());
        assert_eq!(std::mem::size_of::<NullHwTelemetry>(), 0);
    }

    /// Two states: block 0 loads and jumps to block 1, which stores and
    /// returns.
    fn load_then_store() -> Function {
        let mut f = Function::new("ls");
        let (e, b1) = (f.entry, f.add_block());
        let x = f.new_vreg();
        f.block_mut(e).push(Op::Load {
            dst: x,
            addr: Operand::Const(0x100),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(e).term = Terminator::Jump(b1);
        f.block_mut(b1).push(Op::Store {
            src: Operand::Reg(x),
            addr: Operand::Const(0x104),
            width: MemWidth::W,
        });
        f.block_mut(b1).term = Terminator::Return { value: None };
        f
    }

    /// Counts of one invocation over `states` states that entered
    /// `(state, block)` at cycle 0, in order, then performed `txns`.
    fn counts(states: usize, entered: &[(usize, u32)], txns: &[BusTxn]) -> HwCounts {
        let mut c = HwCounts::new(states, false);
        for &(state, block) in entered {
            c.state_enter(state, block, 0);
        }
        for t in txns {
            c.bus(t.write, t.addr, MemWidth::W, t.value, t.cycle);
        }
        c
    }

    fn txn(write: bool, addr: u32, value: u32) -> BusTxn {
        BusTxn {
            write,
            addr,
            bytes: 4,
            value,
            cycle: u64::from(value),
        }
    }

    #[test]
    fn recorder_commit_keeps_and_abort_rolls_back() {
        let f = load_then_store();
        let region: Vec<_> = f.block_ids().collect();
        let fsmd = Fsmd::compile(&f, &crate::schedule(&f, &region), f.entry).unwrap();
        let mut rec = HwRecorder::default();
        rec.invocation_commit(counts(2, &[(0, 0)], &[txn(false, 0x100, 7)]));
        rec.invocation_abort(counts(2, &[(1, 1)], &[txn(true, 0x104, 9)]));
        assert_eq!(rec.enters, [1, 0], "aborted entries rolled back");
        let p = rec.into_profile(&fsmd);
        assert_eq!((p.invocations, p.committed, p.aborted), (2, 1, 1));
        assert_eq!(p.block_execs, [(0, 1)]);
        assert_eq!(p.bus_reads, 1);
        assert_eq!(p.bus_writes, 0, "aborted store rolled back");
        assert_eq!(p.state_cycles.len(), 1, "{:?}", p.state_cycles);
        assert_eq!(p.state_cycles[0].0, 0);
        assert_eq!(p.attributed.total(), p.state_cycles[0].1);
        assert_eq!(
            p.attributed.block_seq, p.measured_cycles,
            "no pipelined loop"
        );
        // The post-mortem payload survives the abort.
        assert_eq!(p.final_state, Some(1));
        assert_eq!(p.last_bus.len(), 2);
        assert!(p.last_bus[1].write);
    }

    #[test]
    fn post_mortem_survives_and_clears() {
        clear_post_mortem();
        assert!(post_mortem_context().is_none());
        let mut rec = HwRecorder::default();
        rec.invocation_commit(counts(2, &[(0, 0)], &[txn(false, 0x40, 4)]));
        rec.invocation_abort(counts(2, &[(1, 1)], &[txn(true, 0x44, 5)]));
        // The latest invocation's state, even though it aborted.
        let pm = post_mortem_context().unwrap();
        assert!(pm.contains("fsm state B1"), "{pm}");
        assert!(pm.contains("bus [R@0x00000040"), "{pm}");
        assert!(pm.contains("W@0x00000044"), "{pm}");
        clear_post_mortem();
        assert!(post_mortem_context().is_none());
    }

    #[test]
    fn bus_rings_keep_the_most_recent_transactions_oldest_first() {
        clear_post_mortem();
        let mut rec = HwRecorder::default();
        let txns: Vec<BusTxn> = (0..40u32).map(|i| txn(false, 4 * i, i)).collect();
        // One invocation overflows both rings; a second one shifts them.
        rec.invocation_commit(counts(1, &[(0, 0)], &txns[..36]));
        let kept: Vec<u32> = rec.last_bus.iter().map(|t| t.value).collect();
        assert_eq!(kept, (36 - LAST_BUS_CAP as u32..36).collect::<Vec<_>>());
        rec.invocation_commit(counts(1, &[(0, 0)], &txns[36..]));
        let kept: Vec<u32> = rec.last_bus.iter().map(|t| t.value).collect();
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
            WaveEvent::Read {
                cycle: 0,
                addr: 0x10,
                value: 3,
            },
            WaveEvent::Read {
                cycle: 0,
                addr: 0x14,
                value: 4,
            },
            WaveEvent::State { cycle: 5, block: 2 },
            WaveEvent::Write {
                cycle: 5,
                addr: 0x18,
                value: 9,
            },
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
        let mut rec = HwRecorder::default();
        assert!(rec.capture_wave());
        let mut c = HwCounts::new(2, rec.capture_wave());
        for i in 0..3000u64 {
            c.state_enter((i % 2) as usize, (i % 2) as u32, 2 * i);
            c.reg_write(2 * i, 7, i as u32);
        }
        rec.invocation_commit(c);
        assert!(!rec.capture_wave(), "only the first invocation is captured");
        assert_eq!(
            rec.enters.iter().sum::<u64>(),
            3000,
            "counters see every event"
        );
        assert!(rec.wave.truncated);
        assert_eq!(rec.wave.events.len(), WAVE_EVENT_CAP);
        let vcd = render_vcd(&rec.wave.events, rec.wave.truncated);
        assert!(vcd.contains("$comment wave truncated at 4096 events $end"));
        assert_timestamps_increase(&vcd);
    }
}
