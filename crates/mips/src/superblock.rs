//! Trace-based superblock engine: records hot paths through the block
//! dispatcher and replays them as straight-line threaded code.
//!
//! The block-dispatch interpreter in [`crate::sim`] already executes one
//! *dispatch round* — a straight-line run, its terminating control op, and
//! the delay slot — per trip around its outer loop. This module fuses
//! whole chains of such rounds *across taken branches* into single-entry /
//! multi-exit **superblocks** and replays them without returning to the
//! dispatcher between rounds. The lifecycle (see the `sim` module docs for
//! how it plugs into the engine):
//!
//! 1. **Record.** Every sequential dispatch round bumps a per-pc heat
//!    counter ([`HEAT_THRESHOLD`]); crossing the threshold arms a
//!    [NET]-style recorder that captures the *actually executed* rounds —
//!    start index, run length, control op, observed branch direction, and
//!    observed continuation — so trace selection follows the program's
//!    empirical branch bias (the same signal the taken counts of
//!    [`crate::sim::Profile`] measure) rather than a static guess.
//! 2. **Specialize.** At install time each recorded round becomes a
//!    [`Seg`]: its text slots are fused into superinstructions
//!    ([`fuse`] — the only place fusion happens; sound because control
//!    enters a round only at its first slot, while the dispatcher runs the
//!    plain ops), the fused ops are copied into one dense code buffer, and
//!    cycle charges / retired-slot counts / the predicted continuation are
//!    precomputed per segment.
//! 3. **Install.** The finished trace is keyed by its entry index in a
//!    dense map the dispatcher probes on every sequential round.
//! 4. **Invalidate.** [`crate::sim::Machine::set_dispatch_boundaries`]
//!    clears the whole cache: recorded rounds never span a dispatch
//!    boundary (the plans are rebuilt bounded first), so re-recorded
//!    traces automatically treat every boundary — e.g. a hybrid machine's
//!    trap pcs — as mandatory segment starts, preserving the hybrid
//!    machine's bounded-run watch semantics bit-for-bit.
//!
//! Replay is observationally exact, not approximately so: each segment
//! emits the same profiler hook sequence as the interpreter round it
//! replaces (body `on_block`, epilogue `on_block`, `on_taken` for taken
//! conditionals, per-constituent store hooks), checks the watch predicate at every segment start
//! (the only sequential states inside a trace), bails out to the
//! interpreter *before* any segment the step budget cannot cover whole,
//! and reproduces the interpreter's partial-round accounting exactly on a
//! faulting constituent. A mispredicted branch simply side-exits: the
//! epilogue has already executed architecturally, so the exit costs
//! nothing but returning to the dispatcher at the observed continuation.
//!
//! [NET]: https://doi.org/10.1109/MICRO.1997.645815 "Next Executing Tail"

use crate::sim::{
    exec_op, fuse, is_control, resolve_control, Memory, Op, OpCode, Outcome, PcWatch, Profiler,
    SimError,
};

/// Trace-map sentinel: no superblock starts at this index.
pub(crate) const NO_TRACE: u32 = u32::MAX;
/// Segment-successor sentinel: leave the trace at the predicted pc.
const SEG_EXIT: u32 = u32::MAX;
/// Sequential dispatch rounds at one pc before the recorder arms.
const HEAT_THRESHOLD: u16 = 8;
/// Longest trace, in segments (dispatch rounds).
const MAX_SEGS: usize = 64;
/// Trace-count cap per machine (a runaway-workload backstop; the suite
/// needs well under a hundred).
const MAX_TRACES: usize = 4096;

/// One specialized dispatch round inside a trace. All scalar (`Copy`) so
/// the executor can pull a segment into locals without borrowing the
/// trace; the dense body ops live in [`Trace::code`].
#[derive(Debug, Clone, Copy)]
struct Seg {
    /// Round-start pc (a sequential state: watch checks happen here).
    pc: u32,
    /// Round-start text slot.
    idx: u32,
    /// Dense body ops: `code[body_off..body_off + body_n]`.
    body_off: u32,
    body_n: u32,
    /// Body slots (this trace's partition — fusion may move the
    /// body/control split without changing the covered range).
    len: u32,
    /// Control-op slot (`idx + len`).
    cidx: u32,
    /// The (possibly fused) control op and the delay-slot op.
    cop: Op,
    sop: Op,
    /// Delay-slot text index (`cidx + cop.width`).
    slot_idx: u32,
    /// Conditional branch? (`on_taken` is only emitted for these.)
    cond: bool,
    /// Recorded direction (true = taken; unconditionals record true).
    taken: bool,
    /// The delay slot is an architectural no-op (canonical `sll $0,$0,0`):
    /// its dispatch can be skipped outright — it has no register, memory,
    /// profiler, or fault effects, and its cycle/instruction charges are
    /// folded into the segment constants regardless.
    slot_nop: bool,
    /// The control op is a direct, register-free, always-taken transfer
    /// (`j`, or a `b` spelled `beq $r,$r` / `bgez $0` / `blez $0`): its
    /// target is `pred` by construction, so replay skips control
    /// resolution and the side-exit compare outright.
    uncond: bool,
    /// Predicted continuation pc (the recorded round's observed one).
    pred: u32,
    /// Next segment when the prediction holds, or [`SEG_EXIT`].
    next: u32,
    /// Instructions a full round retires: `len + cop.width + 1`.
    instrs: u64,
    /// Precomputed cycle charges (body; control + delay slot).
    body_cyc: u64,
    ctl_cyc: u64,
}

/// One installed superblock.
#[derive(Debug)]
struct Trace {
    segs: Vec<Seg>,
    /// Dense fused body ops of every segment, back to back.
    code: Vec<Op>,
    /// Whether the last segment loops back to the head.
    looped: bool,
    /// Times entered from the dispatcher.
    entries: u64,
    /// Times the head segment began executing (entries + loop-backs).
    passes: u64,
    /// Per-segment side-exit counts (prediction misses), parallel to
    /// `segs` (kept outside [`Seg`] so segments stay `Copy`).
    exits: Vec<u64>,
}

/// One recorded (not yet installed) dispatch round.
#[derive(Debug, Clone, Copy)]
struct RoundRec {
    idx: u32,
    /// Body slots before the round's control op (its plan run length).
    len: u32,
    cond: bool,
    taken: bool,
    /// Observed continuation pc.
    pred: u32,
}

/// Recorder state while a trace is being captured.
#[derive(Debug)]
struct Recording {
    entry: u32,
    /// Text index the next round must start at to extend the trace.
    expect: u32,
    rounds: Vec<RoundRec>,
}

/// How a trace replay handed control back to the dispatcher.
pub(crate) enum TraceExit {
    /// Left the trace in a sequential state at the (already stored) pc —
    /// the dispatcher continues (and may chain straight into another
    /// trace).
    Seq,
    /// The head segment cannot run (step budget): execute this round via
    /// the interpreter so partial-round accounting stays exact.
    Interp,
    /// The watch predicate hit a segment-start pc.
    Watched(u32),
    /// A constituent faulted; machine state is at the faulting slot.
    Err(SimError),
}

/// Aggregate trace-cache statistics (observability for benches and CI).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Installed traces.
    pub traces: usize,
    /// Total segments across installed traces.
    pub segments: usize,
    /// Instructions retired inside superblocks (cumulative across runs).
    pub superblock_instrs: u64,
    /// Times the cache was cleared by a dispatch-boundary change.
    pub invalidations: u64,
    /// Heat counters that crossed [`HEAT_THRESHOLD`] and armed a
    /// recording (cumulative, survives invalidation).
    pub heat_promotions: u64,
    /// Traces specialized and installed (cumulative).
    pub installs: u64,
    /// Head-segment passes over installed traces (cumulative; includes
    /// passes of traces since dropped by an invalidation).
    pub passes: u64,
    /// Early exits at guarded branches (cumulative).
    pub side_exits: u64,
    /// Direct trace-to-trace transfers without a dispatcher round-trip
    /// (cumulative).
    pub chain_transfers: u64,
}

/// Summary of one segment of a recorded trace (for tooling; see
/// `examples/fusion_histogram.rs --superblocks`).
#[derive(Debug, Clone)]
pub struct SegSummary {
    /// Round-start pc.
    pub pc: u32,
    /// Text slots the round covers (body + control + delay slot).
    pub slots: u32,
    /// Dense body ops after fusion (dispatches per pass).
    pub dense: u32,
    /// Conditional branch?
    pub cond: bool,
    /// Recorded direction.
    pub taken: bool,
    /// Prediction misses observed at this segment.
    pub side_exits: u64,
}

/// Summary of one recorded superblock.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Entry pc (trace-cache key).
    pub entry_pc: u32,
    /// Whether the trace closes back on its own head.
    pub looped: bool,
    /// Times entered from the dispatcher.
    pub entries: u64,
    /// Times the head segment began executing (entries + loop-backs).
    pub passes: u64,
    /// Per-segment detail, in execution order.
    pub segs: Vec<SegSummary>,
}

impl TraceSummary {
    /// Text slots covered by the whole trace.
    pub fn slots(&self) -> u32 {
        self.segs.iter().map(|s| s.slots).sum()
    }

    /// Fraction of head-segment passes that ran the trace to its end
    /// (loop-back or planned exit) without a side exit — the empirical
    /// bias the trace was recorded on. 1.0 when never executed.
    pub fn hold_rate(&self) -> f64 {
        let exits: u64 = self.segs.iter().map(|s| s.side_exits).sum();
        if self.passes == 0 {
            1.0
        } else {
            1.0 - (exits as f64 / self.passes as f64).min(1.0)
        }
    }
}

/// The per-machine superblock engine: trace map, heat counters, installed
/// traces, and the recorder.
#[derive(Debug)]
pub(crate) struct TraceCache {
    /// Text index → trace id ([`NO_TRACE`] = none).
    map: Vec<u32>,
    /// Per-index sequential-round heat (saturating).
    heat: Vec<u16>,
    traces: Vec<Trace>,
    rec: Option<Recording>,
    sb_instrs: u64,
    invalidations: u64,
    /// Rare-path engine counters (observability; cumulative).
    heat_promotions: u64,
    installs: u64,
    chain_transfers: u64,
    /// Pass/side-exit totals of traces dropped by `invalidate` —
    /// per-trace counts are folded in here before the trace list is
    /// cleared, so `stats` stays cumulative at zero hot-path cost.
    retired_passes: u64,
    retired_side_exits: u64,
}

impl TraceCache {
    pub(crate) fn new(slots: usize) -> TraceCache {
        TraceCache {
            map: vec![NO_TRACE; slots],
            heat: vec![0; slots],
            traces: Vec::new(),
            rec: None,
            sb_instrs: 0,
            invalidations: 0,
            heat_promotions: 0,
            installs: 0,
            chain_transfers: 0,
            retired_passes: 0,
            retired_side_exits: 0,
        }
    }

    /// Drops every trace and rearms every heat counter (dispatch
    /// boundaries changed, so recorded round shapes are stale). Cumulative
    /// statistics are kept.
    pub(crate) fn invalidate(&mut self) {
        self.map.fill(NO_TRACE);
        self.heat.fill(0);
        for t in &self.traces {
            self.retired_passes += t.passes;
            self.retired_side_exits += t.exits.iter().sum::<u64>();
        }
        self.traces.clear();
        self.rec = None;
        self.invalidations += 1;
    }

    #[inline(always)]
    pub(crate) fn lookup(&self, idx: usize) -> u32 {
        self.map[idx]
    }

    pub(crate) fn stats(&self) -> TraceCacheStats {
        TraceCacheStats {
            traces: self.traces.len(),
            segments: self.traces.iter().map(|t| t.segs.len()).sum(),
            superblock_instrs: self.sb_instrs,
            invalidations: self.invalidations,
            heat_promotions: self.heat_promotions,
            installs: self.installs,
            passes: self.retired_passes + self.traces.iter().map(|t| t.passes).sum::<u64>(),
            side_exits: self.retired_side_exits
                + self
                    .traces
                    .iter()
                    .map(|t| t.exits.iter().sum::<u64>())
                    .sum::<u64>(),
            chain_transfers: self.chain_transfers,
        }
    }

    pub(crate) fn summaries(&self) -> Vec<TraceSummary> {
        self.traces
            .iter()
            .map(|t| TraceSummary {
                entry_pc: t.segs[0].pc,
                looped: t.looped,
                entries: t.entries,
                passes: t.passes,
                segs: t
                    .segs
                    .iter()
                    .zip(&t.exits)
                    .map(|(s, &x)| SegSummary {
                        pc: s.pc,
                        slots: (s.instrs) as u32,
                        dense: s.body_n,
                        cond: s.cond,
                        taken: s.taken,
                        side_exits: x,
                    })
                    .collect(),
            })
            .collect()
    }

    /// A sequential dispatch round is about to execute at `idx` and no
    /// trace starts there: advance the recorder (close a loop, detect a
    /// discontinuity) or heat the counter toward a new recording.
    #[inline]
    pub(crate) fn round_start(&mut self, idx: usize, ops: &[Op], text_base: u32) {
        if let Some(rec) = &self.rec {
            if rec.expect as usize == idx {
                if !rec.rounds.is_empty() && rec.entry as usize == idx {
                    // The path closed on its own entry: a loop trace.
                    self.install(true, ops, text_base);
                }
                return;
            }
            // Control went somewhere the recorded chain did not predict
            // (a non-fusable round, a fault recovery, a resumed run):
            // close out what we have.
            self.finalize_recording(ops, text_base);
        }
        let h = self.heat[idx].saturating_add(1);
        self.heat[idx] = h;
        if h == HEAT_THRESHOLD && self.traces.len() < MAX_TRACES {
            self.heat_promotions += 1;
            self.rec = Some(Recording {
                entry: idx as u32,
                expect: idx as u32,
                rounds: Vec::new(),
            });
        }
    }

    /// A full fused dispatch round just executed; append it to the active
    /// recording (no-op when idle).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_round(
        &mut self,
        idx: usize,
        len: u32,
        cond: bool,
        taken: bool,
        pred: u32,
        ops: &[Op],
        text_base: u32,
    ) {
        let Some(rec) = &mut self.rec else { return };
        if rec.expect as usize != idx {
            return;
        }
        rec.rounds.push(RoundRec {
            idx: idx as u32,
            len,
            cond,
            taken,
            pred,
        });
        // Out-of-text predictions (e.g. `jr $ra` into the halt pc) yield
        // an index no future round can start at — the next `round_start`
        // closes the recording.
        rec.expect = pred.wrapping_sub(text_base) / 4;
        if rec.rounds.len() >= MAX_SEGS {
            self.install(false, ops, text_base);
        }
    }

    /// Closes the active recording as a straight-line trace when long
    /// enough to pay for itself; otherwise discards it.
    pub(crate) fn finalize_recording(&mut self, ops: &[Op], text_base: u32) {
        match &self.rec {
            Some(rec) if rec.rounds.len() >= 2 => self.install(false, ops, text_base),
            Some(_) => self.rec = None,
            None => {}
        }
    }

    /// Specializes and installs the active recording.
    fn install(&mut self, looped: bool, ops: &[Op], text_base: u32) {
        let Some(rec) = self.rec.take() else { return };
        if rec.rounds.is_empty() || self.traces.len() >= MAX_TRACES {
            return;
        }
        let mut code: Vec<Op> = Vec::new();
        let mut segs: Vec<Seg> = Vec::with_capacity(rec.rounds.len());
        let n = rec.rounds.len();
        for (i, r) in rec.rounds.iter().enumerate() {
            let Some(seg) = build_seg(r, ops, text_base, &mut code) else {
                // A round the specializer cannot represent (defensive —
                // recorded rounds are fused rounds by construction).
                return;
            };
            segs.push(Seg {
                next: if i + 1 < n {
                    (i + 1) as u32
                } else if looped {
                    0
                } else {
                    SEG_EXIT
                },
                ..seg
            });
        }
        let entry = rec.entry as usize;
        let id = self.traces.len() as u32;
        let exits = vec![0u64; segs.len()];
        self.traces.push(Trace {
            segs,
            code,
            looped,
            entries: 0,
            passes: 0,
            exits,
        });
        self.map[entry] = id;
        self.installs += 1;
    }

    /// Replays trace `tid`, charging retired-inside-superblock accounting.
    ///
    /// Chains: when a trace leaves at a sequential state whose pc is
    /// itself a trace head (a side exit into a sibling trace, or a linear
    /// trace falling into a loop), the next trace is entered directly —
    /// the dispatcher round-trip is pure overhead there. Chaining is
    /// declined (plain [`TraceExit::Seq`]) whenever any dispatcher-loop
    /// check could divert — watch hit, halt/out-of-text pc (both fail the
    /// trace-map bounds check), or a step budget too tight for the next
    /// head segment — so the dispatcher resumes with bit-identical
    /// behaviour.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<P: Profiler, W: PcWatch>(
        &mut self,
        tid: u32,
        ops: &[Op],
        text_base: u32,
        max_steps: u64,
        regs: &mut [u32; 32],
        hi: &mut u32,
        lo: &mut u32,
        mem: &mut Memory,
        prof: &mut P,
        watch: &W,
        pc: &mut u32,
        next_pc: &mut u32,
        instrs: &mut u64,
        cycles: &mut u64,
    ) -> TraceExit {
        let before = *instrs;
        let mut tid = tid;
        let mut chained = false;
        let r = loop {
            let r = exec_trace(
                &mut self.traces[tid as usize],
                ops,
                max_steps,
                regs,
                hi,
                lo,
                mem,
                prof,
                watch,
                pc,
                next_pc,
                instrs,
                cycles,
            );
            match r {
                TraceExit::Seq => {
                    let off = pc.wrapping_sub(text_base);
                    let next = if off & 3 == 0 {
                        self.map
                            .get((off >> 2) as usize)
                            .copied()
                            .unwrap_or(NO_TRACE)
                    } else {
                        NO_TRACE
                    };
                    if next != NO_TRACE && !watch.hit(*pc) && *instrs < max_steps {
                        tid = next;
                        chained = true;
                        self.chain_transfers += 1;
                        continue;
                    }
                    break TraceExit::Seq;
                }
                // A chained head's budget bail must re-enter through the
                // dispatcher (its fall-through interpreter round would use
                // the stale pre-chain text index).
                TraceExit::Interp if chained => break TraceExit::Seq,
                r => break r,
            }
        };
        self.sb_instrs += *instrs - before;
        r
    }
}

/// Specializes one recorded round into a segment, appending its fused
/// dense body to `code`.
fn build_seg(r: &RoundRec, ops: &[Op], text_base: u32, code: &mut Vec<Op>) -> Option<Seg> {
    let start = r.idx as usize;
    let slots = r.len as usize + 1;
    let slot_idx = start + slots;
    let extent = ops.get(start..start + slots)?;
    let sop = *ops.get(slot_idx)?;
    // Fuse the whole round (body + control op). The split between body and
    // control may move (e.g. a `slt` absorbed into a fused
    // compare-and-branch), but the covered slots — and therefore every
    // profiler range and cycle charge — are the recorded round's.
    let dense = fuse(extent);
    let (&cop, body) = dense.split_last()?;
    if !is_control(cop.code) || body.iter().any(|o| is_control(o.code)) {
        return None;
    }
    let cw = cop.width as usize;
    let len = slots - cw;
    let body_off = code.len() as u32;
    let body_n = body.len() as u32;
    code.extend_from_slice(body);
    let body_cyc: u64 = extent[..len].iter().map(|o| u64::from(o.cyc)).sum();
    Some(Seg {
        pc: text_base.wrapping_add(r.idx * 4),
        idx: r.idx,
        body_off,
        body_n,
        len: len as u32,
        cidx: (start + len) as u32,
        cop,
        sop,
        slot_idx: slot_idx as u32,
        cond: r.cond,
        taken: r.taken,
        slot_nop: sop.code == OpCode::Sll && sop.a == 0,
        // Fused control kinds are excluded: they carry register-writing
        // constituents, so they must go through `resolve_control`.
        uncond: cop.code == OpCode::J
            || (cop.code == OpCode::Beq && cop.b == cop.c)
            || (matches!(cop.code, OpCode::Bgez | OpCode::Blez) && cop.b == 0),
        pred: r.pred,
        next: SEG_EXIT,
        instrs: slots as u64 + 1,
        body_cyc,
        ctl_cyc: u64::from(cop.cyc) + u64::from(sop.cyc),
    })
}

/// Executes one segment's dense body. Mirrors the interpreter's
/// `run_block` exactly — including partial-round accounting and the
/// partial `on_block` on a faulting constituent — but skips the per-op
/// cycle accumulation and width/budget checks (totals are precomputed;
/// the caller guarantees the whole round fits the step budget).
///
/// `inline(always)` so call sites with a compile-time-known body length
/// (see the `match body.len()` in [`exec_loop_trace`]) unroll fully,
/// giving each body position its own dispatch site — monomorphic at run
/// time, so the indirect branch predicts.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run_trace_body<P: Profiler>(
    body: &[Op],
    uops: &[Op],
    base_pc: u32,
    start_idx: usize,
    regs: &mut [u32; 32],
    hi: &mut u32,
    lo: &mut u32,
    mem: &mut Memory,
    prof: &mut P,
) -> Result<(), (usize, u64, SimError)> {
    let mut k = 0usize;
    for &op in body {
        let pc = base_pc.wrapping_add(4 * k as u32);
        match exec_op::<P>(op, pc, start_idx + k, regs, hi, lo, mem, prof) {
            Ok(Outcome::Next) => {}
            // `build_seg` rejects a round with a control op before its last.
            Ok(_) => unreachable!("control op inside superblock body"),
            Err(e) => {
                let w = op.width as usize;
                let mut fk = k + w - 1;
                if w > 1 {
                    if let SimError::Unaligned { pc: epc, .. } = e {
                        let rel = (epc.wrapping_sub(base_pc) / 4) as usize;
                        if rel >= k && rel < k + w {
                            fk = rel;
                        }
                    }
                }
                // Fused cycle charges are constituent sums, so the exact
                // partial charge is the unfused cost of every retired
                // slot — the same number `run_block` sums op by op.
                let cyc: u64 = uops[..=fk].iter().map(|o| u64::from(o.cyc)).sum();
                prof.on_block(start_idx, fk + 1, cyc);
                return Err((fk, cyc, e));
            }
        }
        k += op.width as usize;
    }
    Ok(())
}

/// Replays a short trace — the hottest trace shapes (counted inner loops,
/// including two-round bodies like `for` loops whose condition and
/// back-edge dispatch as separate rounds, and short linear paths through
/// call bodies) — with every segment copied into a stack array of
/// compile-time-known arity. The `for si in 0..N` loop fully unrolls, so
/// each segment's body dispatch, epilogue, and chaining own their branch
/// sites. Behaviour is identical to the general [`exec_trace`] path; this
/// exists purely to cut per-round overhead.
#[allow(clippy::too_many_arguments)]
fn exec_spec_trace<P: Profiler, W: PcWatch, const N: usize, const LOOPED: bool>(
    segs: [Seg; N],
    t: &mut Trace,
    uops: &[Op],
    max_steps: u64,
    regs: &mut [u32; 32],
    hi: &mut u32,
    lo: &mut u32,
    mem: &mut Memory,
    prof: &mut P,
    watch: &W,
    pc: &mut u32,
    next_pc: &mut u32,
    instrs: &mut u64,
    cycles: &mut u64,
) -> TraceExit {
    // Hoist the per-segment slices out of the replay loop: their bounds
    // checks and pointer math would otherwise re-run every round.
    let bodies: [&[Op]; N] = std::array::from_fn(|i| {
        let s = &segs[i];
        &t.code[s.body_off as usize..(s.body_off + s.body_n) as usize]
    });
    let ubs: [&[Op]; N] =
        std::array::from_fn(|i| &uops[segs[i].idx as usize..segs[i].cidx as usize]);
    let mut passes = 0u64;
    let mut exit_si = usize::MAX;
    let mut first = true;
    let out = 'trace: loop {
        for si in 0..N {
            let s = &segs[si];
            if !first && watch.hit(s.pc) {
                *pc = s.pc;
                *next_pc = s.pc.wrapping_add(4);
                break 'trace TraceExit::Watched(s.pc);
            }
            if *instrs + s.instrs > max_steps {
                *pc = s.pc;
                *next_pc = s.pc.wrapping_add(4);
                break 'trace if first {
                    TraceExit::Interp
                } else {
                    TraceExit::Seq
                };
            }
            first = false;
            passes += u64::from(si == 0);
            let idx = s.idx as usize;
            if s.body_n > 0 {
                let body = bodies[si];
                let ub = ubs[si];
                // Dispatching constant-length prefixes lets the compiler
                // unroll each arm fully (run_trace_body is inline(always)),
                // so every body position owns its dispatch site.
                let r = match body.len() {
                    1 => run_trace_body(&body[..1], ub, s.pc, idx, regs, hi, lo, mem, prof),
                    2 => run_trace_body(&body[..2], ub, s.pc, idx, regs, hi, lo, mem, prof),
                    3 => run_trace_body(&body[..3], ub, s.pc, idx, regs, hi, lo, mem, prof),
                    4 => run_trace_body(&body[..4], ub, s.pc, idx, regs, hi, lo, mem, prof),
                    5 => run_trace_body(&body[..5], ub, s.pc, idx, regs, hi, lo, mem, prof),
                    _ => run_trace_body(body, ub, s.pc, idx, regs, hi, lo, mem, prof),
                };
                match r {
                    Ok(()) => {
                        *instrs += u64::from(s.len);
                        *cycles += s.body_cyc;
                        prof.on_block(idx, s.len as usize, s.body_cyc);
                    }
                    Err((fk, cyc, e)) => {
                        *instrs += fk as u64 + 1;
                        *cycles += cyc;
                        let fpc = s.pc.wrapping_add(4 * fk as u32);
                        *pc = fpc;
                        *next_pc = fpc.wrapping_add(4);
                        break 'trace TraceExit::Err(e);
                    }
                }
            }
            let cw = s.cop.width as usize;
            let ctl_pc = s.pc.wrapping_add(4 * s.len);
            let slot_pc = ctl_pc.wrapping_add(4 * cw as u32);
            let (after, taken) = if s.uncond {
                // Direct always-taken transfer: the target IS the recorded
                // continuation — no resolution, no possible side exit.
                (s.pred, true)
            } else {
                let target = resolve_control(s.cop, ctl_pc, regs);
                (
                    target.unwrap_or_else(|| slot_pc.wrapping_add(4)),
                    target.is_some(),
                )
            };
            *instrs += cw as u64 + 1;
            *cycles += s.ctl_cyc;
            prof.on_block(s.cidx as usize, cw + 1, s.ctl_cyc);
            if taken && s.cond {
                prof.on_taken(s.cidx as usize + cw - 1);
            }
            if !s.slot_nop {
                match exec_op::<P>(s.sop, slot_pc, s.slot_idx as usize, regs, hi, lo, mem, prof) {
                    Ok(Outcome::Next) => {}
                    // Segments come from flagged rounds: plain delay slots.
                    Ok(_) => unreachable!("control op in superblock delay slot"),
                    Err(e) => {
                        *pc = slot_pc;
                        *next_pc = after;
                        break 'trace TraceExit::Err(e);
                    }
                }
            }
            if after != s.pred {
                exit_si = si;
                *pc = after;
                *next_pc = after.wrapping_add(4);
                break 'trace TraceExit::Seq;
            }
            if !LOOPED && si == N - 1 {
                // Planned exit of a linear trace: leave at the recorded
                // continuation (a sequential state).
                *pc = after;
                *next_pc = after.wrapping_add(4);
                break 'trace TraceExit::Seq;
            }
        }
    };
    t.passes += passes;
    if exit_si != usize::MAX {
        t.exits[exit_si] += 1;
    }
    out
}

/// Replays a trace until a side exit, planned exit, watch hit, budget
/// bail-out, or fault. `pc`/`next_pc` are stored before every return, so
/// the caller's dispatcher resumes exactly where the interpreter would be.
#[allow(clippy::too_many_arguments)]
fn exec_trace<P: Profiler, W: PcWatch>(
    t: &mut Trace,
    uops: &[Op],
    max_steps: u64,
    regs: &mut [u32; 32],
    hi: &mut u32,
    lo: &mut u32,
    mem: &mut Memory,
    prof: &mut P,
    watch: &W,
    pc: &mut u32,
    next_pc: &mut u32,
    instrs: &mut u64,
    cycles: &mut u64,
) -> TraceExit {
    t.entries += 1;
    macro_rules! spec {
        ($n:literal, $looped:literal) => {
            if let Ok(segs) = <[Seg; $n]>::try_from(t.segs.as_slice()) {
                return exec_spec_trace::<P, W, $n, $looped>(
                    segs, t, uops, max_steps, regs, hi, lo, mem, prof, watch, pc, next_pc, instrs,
                    cycles,
                );
            }
        };
    }
    // Only the two dominant shapes earn a specialization: wider arities
    // and linear traces measured as no gain for 2x the compile time.
    if t.looped {
        spec!(1, true);
        spec!(2, true);
    }
    let mut si = 0usize;
    let mut first = true;
    let mut passes = 0u64;
    let mut exit_si = usize::MAX;
    let out = loop {
        let s = &t.segs[si];
        // Segment starts are the sequential states inside a trace: the
        // interpreter would re-check its watch here. The entry segment
        // was already checked by the dispatcher this round.
        if !first && watch.hit(s.pc) {
            *pc = s.pc;
            *next_pc = s.pc.wrapping_add(4);
            break TraceExit::Watched(s.pc);
        }
        if *instrs + s.instrs > max_steps {
            // The interpreter retires partial rounds at the budget edge;
            // hand this round back to it. A bail at the head segment must
            // not re-enter the trace (the pc has not moved).
            *pc = s.pc;
            *next_pc = s.pc.wrapping_add(4);
            break if first {
                TraceExit::Interp
            } else {
                TraceExit::Seq
            };
        }
        first = false;
        passes += u64::from(si == 0);
        let idx = s.idx as usize;
        if s.body_n > 0 {
            let body = &t.code[s.body_off as usize..(s.body_off + s.body_n) as usize];
            let ub = &uops[idx..s.cidx as usize];
            // Constant-length prefixes unroll fully (run_trace_body is
            // inline(always)), giving each short-body position its own
            // monomorphic dispatch site.
            let r = match body.len() {
                1 => run_trace_body(&body[..1], ub, s.pc, idx, regs, hi, lo, mem, prof),
                2 => run_trace_body(&body[..2], ub, s.pc, idx, regs, hi, lo, mem, prof),
                3 => run_trace_body(&body[..3], ub, s.pc, idx, regs, hi, lo, mem, prof),
                4 => run_trace_body(&body[..4], ub, s.pc, idx, regs, hi, lo, mem, prof),
                _ => run_trace_body(body, ub, s.pc, idx, regs, hi, lo, mem, prof),
            };
            match r {
                Ok(()) => {
                    *instrs += u64::from(s.len);
                    *cycles += s.body_cyc;
                    prof.on_block(idx, s.len as usize, s.body_cyc);
                }
                Err((fk, cyc, e)) => {
                    *instrs += fk as u64 + 1;
                    *cycles += cyc;
                    let fpc = s.pc.wrapping_add(4 * fk as u32);
                    *pc = fpc;
                    *next_pc = fpc.wrapping_add(4);
                    break TraceExit::Err(e);
                }
            }
        }
        // Control epilogue — identical to the interpreter's: resolve the
        // transfer before the slot runs, charge control + slot as one
        // contiguous retired range, then execute the delay slot.
        let cw = s.cop.width as usize;
        let ctl_pc = s.pc.wrapping_add(4 * s.len);
        let slot_pc = ctl_pc.wrapping_add(4 * cw as u32);
        let (after, taken) = if s.uncond {
            (s.pred, true)
        } else {
            let target = resolve_control(s.cop, ctl_pc, regs);
            (
                target.unwrap_or_else(|| slot_pc.wrapping_add(4)),
                target.is_some(),
            )
        };
        *instrs += cw as u64 + 1;
        *cycles += s.ctl_cyc;
        prof.on_block(s.cidx as usize, cw + 1, s.ctl_cyc);
        if taken && s.cond {
            prof.on_taken(s.cidx as usize + cw - 1);
        }
        if !s.slot_nop {
            match exec_op::<P>(s.sop, slot_pc, s.slot_idx as usize, regs, hi, lo, mem, prof) {
                Ok(Outcome::Next) => {}
                // Segments come from flagged rounds: plain delay slots.
                Ok(_) => unreachable!("control op in superblock delay slot"),
                Err(e) => {
                    *pc = slot_pc;
                    *next_pc = after;
                    break TraceExit::Err(e);
                }
            }
        }
        if after == s.pred && s.next != SEG_EXIT {
            si = s.next as usize;
            continue;
        }
        if after != s.pred {
            exit_si = si;
        }
        *pc = after;
        *next_pc = after.wrapping_add(4);
        break TraceExit::Seq;
    };
    t.passes += passes;
    if exit_si != usize::MAX {
        t.exits[exit_si] += 1;
    }
    out
}
