//! Zero-cost-when-off observability for the partitioning pipeline.
//!
//! This crate is the instrumentation substrate the rest of the workspace
//! reports through: span-scoped wall-clock timing of the staged flow,
//! cache hit/miss attribution, engine counters (superblock trace cache,
//! hybrid trap-and-swap), sweep progress, and structured
//! [`Diagnostic`](https://docs.rs/binpart-core)-stream emission. It is
//! deliberately dependency-free and sits below every other crate.
//!
//! # The zero-cost contract
//!
//! [`Telemetry`] is a *monomorphized* trait, mirroring how `Profiler`
//! works in `binpart_mips::sim`: instrumented code is generic over
//! `T: Telemetry`, and the default [`NullTelemetry`] instantiation
//! compiles every hook to nothing. The contract has three legs:
//!
//! 1. **No virtual dispatch.** Hooks are monomorphized; `NullTelemetry`'s
//!    bodies are empty `#[inline(always)]` functions the optimizer
//!    deletes.
//! 2. **No argument construction when off.** Anything that costs to
//!    build — formatted detail strings, derived rates — is gated behind
//!    `T::ENABLED` (an associated `const`, so the branch folds away) or
//!    passed lazily via closure ([`SpanGuard::enter`] only invokes its
//!    detail closure when `T::ENABLED`).
//! 3. **No observable behavior change.** Instrumentation never alters
//!    results: the suite-wide differential test asserts bit-identical
//!    `Exit`/`Profile` with telemetry compiled in, and the throughput
//!    smoke gate asserts superblock instrs/s under `NullTelemetry` is
//!    within noise of the pre-instrumentation snapshot.
//!
//! # Event and counter taxonomy
//!
//! **Spans** (wall-clock intervals, nested per thread; names are the
//! stable identifiers the Chrome exporter and golden tests key on):
//!
//! | span              | scope                                                |
//! |-------------------|------------------------------------------------------|
//! | `profile`         | one software reference run of a `StagedFlow` stage   |
//! | `decompile`       | CDFG recovery + decompiler optimizations             |
//! | `estimate`        | candidate harvesting + estimate-artifact build       |
//! | `evaluate`        | partitioning + synthesis estimation for one config   |
//! | `cosimulate`      | accelerator packaging + hybrid trap-and-swap cosim   |
//! | `accel_compile`   | inside `cosimulate`: packaging the selected kernels  |
//! |                   | as regions + FSMD accelerators                       |
//! | `hybrid_run`      | inside `cosimulate`: the hybrid machine run          |
//! | `hw_invoke`       | one FSMD accelerator invocation (instrumented cosim; |
//! |                   | capped per kernel to bound trace size)               |
//! | `hwprofile_build` | inside `cosimulate`: folding the hardware recorders  |
//! |                   | into `HwProfile`s (their VCDs stay unrendered)       |
//! | `sweep`           | one whole `binpart_explore` grid sweep               |
//!
//! **Counters** ([`Counter`]; monotonic totals, each delta also recorded
//! as a timestamped point for Chrome counter tracks):
//!
//! * `profile_stage_hit/miss`, `decompile_stage_hit/miss`,
//!   `estimate_stage_hit/miss` — `OnceLock` slot attribution in
//!   `StagedFlow` (miss = this call computed the artifact).
//! * `estimate_cache_hit/miss` — the per-kernel `EstimateCache` memo in
//!   `binpart_synth`, attributed per `evaluate` call by delta.
//! * `trace_heat_promotions`, `trace_installs`, `trace_passes`,
//!   `trace_side_exits`, `trace_chain_transfers`, `trace_invalidations`
//!   — superblock trace-cache engine counters.
//! * `hybrid_trap_entries`, `hybrid_store_mismatches` — hybrid machine
//!   kernel-trap entries and store-differential mismatch events.
//! * `sweep_points_ok`, `sweep_points_failed` — sweep progress.
//! * `diagnostics` — per-region degradation records emitted as events.
//! * `hw_invocations`, `hw_bus_reads`, `hw_bus_writes`,
//!   `hw_stall_cycles`, `hw_fill_cycles` — hardware-side totals folded
//!   out of the per-kernel `HwProfile`s after an instrumented
//!   co-simulation (`binpart_hwsim`'s FSMD profiler).
//!
//! **Events** (timestamped instants with a detail string): `diagnostic`
//! (one per `Diagnostic` in a flow report) and `sweep_done`.
//!
//! # Sinks
//!
//! * [`Recorder`] — the in-memory sink; implements [`Telemetry`].
//! * [`TelemetryReport`] ([`Recorder::report`]) — aggregated summary
//!   with a [rendered table](TelemetryReport::render).
//! * [`Recorder::chrome_trace`] — `chrome://tracing` / Perfetto JSON
//!   (complete-span `"X"` events plus `"C"` counter tracks). Unbalanced
//!   span enter/exit is a typed [`TelemetryError`], never a panic.
//! * [`collapse_pc_counts`] — collapsed-stack flamegraph text from a
//!   per-pc execution-count histogram (e.g. the exact counts of a
//!   `binpart_mips::sim::Profile`) keyed by recovered function extents.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// The monomorphized observability hook set.
///
/// Instrumented code takes `T: Telemetry` and calls these on the shared
/// reference it holds; sinks use interior mutability. See the crate docs
/// for the zero-cost contract. Prefer [`SpanGuard::enter`] over raw
/// `span_enter`/`span_exit` pairs — the guard keeps exits balanced on
/// every path and leaves the span open (for post-mortem context) when
/// the thread is unwinding.
pub trait Telemetry: Send + Sync {
    /// Compile-time gate: `false` for [`NullTelemetry`]. Guard any
    /// argument construction that costs something behind this.
    const ENABLED: bool;
    /// A named interval starts on this thread. `detail` is free-form.
    fn span_enter(&self, name: &'static str, detail: &str);
    /// The most recently entered open span on this thread ends; `name`
    /// must match it (a mismatch is recorded as a typed error).
    fn span_exit(&self, name: &'static str);
    /// Add `delta` to a monotonic counter.
    fn counter_add(&self, counter: Counter, delta: u64);
    /// A timestamped instant with a detail string.
    fn event(&self, name: &'static str, detail: &str);
}

/// The do-nothing instantiation: every hook compiles away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTelemetry;

impl Telemetry for NullTelemetry {
    const ENABLED: bool = false;
    #[inline(always)]
    fn span_enter(&self, _name: &'static str, _detail: &str) {}
    #[inline(always)]
    fn span_exit(&self, _name: &'static str) {}
    #[inline(always)]
    fn counter_add(&self, _counter: Counter, _delta: u64) {}
    #[inline(always)]
    fn event(&self, _name: &'static str, _detail: &str) {}
}

/// Shared references forward, so one sink can be threaded through
/// parallel workers (`StagedFlow<'_, &Recorder>` inside a sweep).
impl<T: Telemetry> Telemetry for &T {
    const ENABLED: bool = T::ENABLED;
    #[inline(always)]
    fn span_enter(&self, name: &'static str, detail: &str) {
        (**self).span_enter(name, detail);
    }
    #[inline(always)]
    fn span_exit(&self, name: &'static str) {
        (**self).span_exit(name);
    }
    #[inline(always)]
    fn counter_add(&self, counter: Counter, delta: u64) {
        (**self).counter_add(counter, delta);
    }
    #[inline(always)]
    fn event(&self, name: &'static str, detail: &str) {
        (**self).event(name, detail);
    }
}

/// RAII span: exits on drop, so early returns and `?` stay balanced.
///
/// If the thread is unwinding (a panic is in flight), the drop does
/// *not* exit the span — it stays open in the sink, so a post-mortem
/// [`Recorder::open_span_stack`] shows where the panic happened. The
/// detail closure is only invoked when `T::ENABLED`.
pub struct SpanGuard<'a, T: Telemetry> {
    tel: &'a T,
    name: &'static str,
}

impl<'a, T: Telemetry> SpanGuard<'a, T> {
    /// Enter a span; the returned guard exits it when dropped.
    #[inline]
    pub fn enter(tel: &'a T, name: &'static str, detail: impl FnOnce() -> String) -> Self {
        if T::ENABLED {
            tel.span_enter(name, &detail());
        }
        SpanGuard { tel, name }
    }
}

impl<T: Telemetry> Drop for SpanGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        if T::ENABLED && !std::thread::panicking() {
            self.tel.span_exit(self.name);
        }
    }
}

/// The closed counter taxonomy (crate docs list each counter's meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `StagedFlow::profile` served from its `OnceLock` slot.
    ProfileStageHit,
    /// `StagedFlow::profile` computed the artifact.
    ProfileStageMiss,
    /// `StagedFlow::decompile` served from its slot.
    DecompileStageHit,
    /// `StagedFlow::decompile` computed the artifact.
    DecompileStageMiss,
    /// `StagedFlow::estimate` served from its slot.
    EstimateStageHit,
    /// `StagedFlow::estimate` computed the artifact.
    EstimateStageMiss,
    /// Per-kernel `EstimateCache` memo hits during one `evaluate`.
    EstimateCacheHit,
    /// Per-kernel `EstimateCache` memo misses during one `evaluate`.
    EstimateCacheMiss,
    /// Superblock heat counter crossed the threshold; recording armed.
    TraceHeatPromotions,
    /// A recorded trace was specialized and installed.
    TraceInstalls,
    /// Completed front-to-back passes over installed traces.
    TracePasses,
    /// Early exits out of a trace at a guarded branch.
    TraceSideExits,
    /// Direct trace-to-trace transfers without leaving the cache.
    TraceChainTransfers,
    /// Whole-cache invalidations (dispatch-boundary changes).
    TraceInvalidations,
    /// Hybrid machine kernel-trap entries (accelerator invocations).
    HybridTrapEntries,
    /// Store-differential mismatch events during co-simulation.
    HybridStoreMismatches,
    /// Sweep points that evaluated successfully.
    SweepPointsOk,
    /// Sweep points that returned a flow error.
    SweepPointsFailed,
    /// Per-region degradation `Diagnostic`s emitted.
    Diagnostics,
    /// Hardware accelerator invocations observed by the FSMD profiler.
    HwInvocations,
    /// FSMD bus load transactions (instrumented co-simulation).
    HwBusReads,
    /// FSMD bus store transactions (instrumented co-simulation).
    HwBusWrites,
    /// Measured cycles attributed to memory-bus II stalls.
    HwStallCycles,
    /// Measured cycles attributed to pipeline fill/drain.
    HwFillCycles,
}

impl Counter {
    /// Number of counters in the taxonomy.
    pub const COUNT: usize = 24;

    /// Every counter, in taxonomy order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::ProfileStageHit,
        Counter::ProfileStageMiss,
        Counter::DecompileStageHit,
        Counter::DecompileStageMiss,
        Counter::EstimateStageHit,
        Counter::EstimateStageMiss,
        Counter::EstimateCacheHit,
        Counter::EstimateCacheMiss,
        Counter::TraceHeatPromotions,
        Counter::TraceInstalls,
        Counter::TracePasses,
        Counter::TraceSideExits,
        Counter::TraceChainTransfers,
        Counter::TraceInvalidations,
        Counter::HybridTrapEntries,
        Counter::HybridStoreMismatches,
        Counter::SweepPointsOk,
        Counter::SweepPointsFailed,
        Counter::Diagnostics,
        Counter::HwInvocations,
        Counter::HwBusReads,
        Counter::HwBusWrites,
        Counter::HwStallCycles,
        Counter::HwFillCycles,
    ];

    /// Stable snake-case name (used in reports, Chrome tracks, JSON).
    pub fn name(self) -> &'static str {
        match self {
            Counter::ProfileStageHit => "profile_stage_hit",
            Counter::ProfileStageMiss => "profile_stage_miss",
            Counter::DecompileStageHit => "decompile_stage_hit",
            Counter::DecompileStageMiss => "decompile_stage_miss",
            Counter::EstimateStageHit => "estimate_stage_hit",
            Counter::EstimateStageMiss => "estimate_stage_miss",
            Counter::EstimateCacheHit => "estimate_cache_hit",
            Counter::EstimateCacheMiss => "estimate_cache_miss",
            Counter::TraceHeatPromotions => "trace_heat_promotions",
            Counter::TraceInstalls => "trace_installs",
            Counter::TracePasses => "trace_passes",
            Counter::TraceSideExits => "trace_side_exits",
            Counter::TraceChainTransfers => "trace_chain_transfers",
            Counter::TraceInvalidations => "trace_invalidations",
            Counter::HybridTrapEntries => "hybrid_trap_entries",
            Counter::HybridStoreMismatches => "hybrid_store_mismatches",
            Counter::SweepPointsOk => "sweep_points_ok",
            Counter::SweepPointsFailed => "sweep_points_failed",
            Counter::Diagnostics => "diagnostics",
            Counter::HwInvocations => "hw_invocations",
            Counter::HwBusReads => "hw_bus_reads",
            Counter::HwBusWrites => "hw_bus_writes",
            Counter::HwStallCycles => "hw_stall_cycles",
            Counter::HwFillCycles => "hw_fill_cycles",
        }
    }

    /// Dense index into per-counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed span-bookkeeping defects. Misuse of the API (an exit with no
/// matching enter, a name mismatch, export while spans are still open)
/// is recorded and surfaced here at export time — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// `span_exit` was called on a thread with no open span.
    ExitWithoutEnter {
        /// The name passed to the orphan exit.
        name: String,
    },
    /// `span_exit(got)` did not match the innermost open span.
    MismatchedExit {
        /// The innermost open span's name.
        expected: String,
        /// The name passed to `span_exit`.
        got: String,
    },
    /// Export was requested while spans were still open.
    UnclosedSpans {
        /// Names of the open spans, outermost first.
        names: Vec<String>,
    },
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::ExitWithoutEnter { name } => {
                write!(f, "span_exit(\"{name}\") with no open span on this thread")
            }
            TelemetryError::MismatchedExit { expected, got } => {
                write!(f, "span_exit(\"{got}\") but the innermost open span is \"{expected}\"")
            }
            TelemetryError::UnclosedSpans { names } => {
                write!(f, "export with {} unclosed span(s): {}", names.len(), names.join(", "))
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

/// Cap on timestamped counter points kept for Chrome tracks; totals are
/// always exact, overflow only degrades track resolution.
const SERIES_CAP: usize = 16_384;
/// Cap on retained events; overflow is counted, not silently dropped.
const EVENT_CAP: usize = 4_096;

struct SpanRec {
    name: &'static str,
    detail: String,
    tid: u32,
    start_us: u64,
    dur_us: Option<u64>,
}

struct EventRec {
    name: &'static str,
    detail: String,
    tid: u32,
    ts_us: u64,
}

struct CounterPoint {
    counter: Counter,
    ts_us: u64,
    delta: u64,
    total: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    /// Per-thread stacks of indices into `spans` (open spans only).
    open: HashMap<ThreadId, Vec<usize>>,
    /// Dense display ids per OS thread, in first-seen order.
    tids: HashMap<ThreadId, u32>,
    totals: [u64; Counter::COUNT],
    series: Vec<CounterPoint>,
    series_dropped: u64,
    events: Vec<EventRec>,
    events_dropped: u64,
    errors: Vec<TelemetryError>,
}

impl Inner {
    fn tid(&mut self) -> u32 {
        let next = self.tids.len() as u32;
        *self.tids.entry(std::thread::current().id()).or_insert(next)
    }
}

/// The in-memory sink: records spans, counters, and events under a
/// mutex, then aggregates ([`report`](Recorder::report)) or exports
/// ([`chrome_trace`](Recorder::chrome_trace)). Thread-safe; span
/// nesting is tracked per thread.
pub struct Recorder {
    start: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder; timestamps are relative to this call.
    pub fn new() -> Recorder {
        Recorder { start: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding this mutex can only come from allocation
        // failure; poisoned state is still safe to read.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Exact monotonic total for one counter.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.lock().totals[counter.index()]
    }

    /// Names of all currently open spans, outermost first, grouped by
    /// thread in first-seen order. After a caught panic this is the
    /// span stack at the point of the panic ([`SpanGuard`] leaves spans
    /// open while unwinding).
    pub fn open_span_stack(&self) -> Vec<String> {
        let inner = self.lock();
        let mut threads: Vec<(&ThreadId, &Vec<usize>)> = inner.open.iter().collect();
        threads.sort_by_key(|(id, _)| inner.tids.get(id).copied().unwrap_or(u32::MAX));
        let mut out = Vec::new();
        for (_, stack) in threads {
            for &i in stack {
                let s = &inner.spans[i];
                if s.detail.is_empty() {
                    out.push(s.name.to_string());
                } else {
                    out.push(format!("{} ({})", s.name, s.detail));
                }
            }
        }
        out
    }

    /// The last `n` counter deltas and events, oldest first, rendered
    /// one per line — the post-mortem context torture attaches to a
    /// violation report.
    pub fn recent_activity(&self, n: usize) -> Vec<String> {
        let inner = self.lock();
        let mut lines: Vec<(u64, String)> = Vec::new();
        for p in inner.series.iter().rev().take(n) {
            lines.push((
                p.ts_us,
                format!("{:>10.3}ms  {} +{} (total {})", p.ts_us as f64 / 1e3, p.counter, p.delta, p.total),
            ));
        }
        for e in inner.events.iter().rev().take(n) {
            lines.push((e.ts_us, format!("{:>10.3}ms  event {}: {}", e.ts_us as f64 / 1e3, e.name, e.detail)));
        }
        lines.sort_by_key(|(ts, _)| *ts);
        let skip = lines.len().saturating_sub(n);
        lines.into_iter().skip(skip).map(|(_, l)| l).collect()
    }

    /// Aggregate everything recorded so far into a summary report.
    /// Open spans are counted at their elapsed-so-far duration.
    pub fn report(&self) -> TelemetryReport {
        let now = self.now_us();
        let inner = self.lock();
        let mut by_name: HashMap<&'static str, SpanSummary> = HashMap::new();
        let mut order: Vec<&'static str> = Vec::new();
        for s in &inner.spans {
            let dur_s = s.dur_us.unwrap_or_else(|| now.saturating_sub(s.start_us)) as f64 / 1e6;
            let e = by_name.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                SpanSummary { name: s.name.to_string(), count: 0, total_s: 0.0, max_s: 0.0 }
            });
            e.count += 1;
            e.total_s += dur_s;
            e.max_s = e.max_s.max(dur_s);
        }
        let spans = order.into_iter().filter_map(|n| by_name.remove(n)).collect();
        let counters = Counter::ALL
            .iter()
            .filter(|c| inner.totals[c.index()] > 0)
            .map(|c| (c.name().to_string(), inner.totals[c.index()]))
            .collect();
        TelemetryReport {
            spans,
            counters,
            events: inner.events.len() as u64 + inner.events_dropped,
            errors: inner.errors.len() as u64,
            wall_s: now as f64 / 1e6,
        }
    }

    /// Export everything as Chrome `chrome://tracing` / Perfetto JSON:
    /// one `"X"` (complete) event per span in enter order, one `"C"`
    /// (counter) track point per recorded delta, one `"i"` (instant)
    /// event per telemetry event.
    ///
    /// Returns the first recorded span-bookkeeping defect, or
    /// [`TelemetryError::UnclosedSpans`] if spans are still open —
    /// never panics.
    pub fn chrome_trace(&self) -> Result<String, TelemetryError> {
        let inner = self.lock();
        if let Some(e) = inner.errors.first() {
            return Err(e.clone());
        }
        let open: Vec<String> =
            inner.open.values().flat_map(|stack| stack.iter().map(|&i| inner.spans[i].name.to_string())).collect();
        if !open.is_empty() {
            return Err(TelemetryError::UnclosedSpans { names: open });
        }
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        for s in &inner.spans {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"detail\":\"{}\"}}}}",
                escape_json(s.name),
                s.start_us,
                s.dur_us.unwrap_or(0),
                s.tid,
                escape_json(&s.detail),
            ));
        }
        for p in &inner.series {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{}}}}}",
                p.counter, p.ts_us, p.total,
            ));
        }
        for e in &inner.events {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{{\"detail\":\"{}\"}}}}",
                escape_json(e.name),
                e.ts_us,
                e.tid,
                escape_json(&e.detail),
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        Ok(out)
    }
}

impl Telemetry for Recorder {
    const ENABLED: bool = true;

    fn span_enter(&self, name: &'static str, detail: &str) {
        let ts = self.now_us();
        let mut inner = self.lock();
        let tid = inner.tid();
        let idx = inner.spans.len();
        inner.spans.push(SpanRec { name, detail: detail.to_string(), tid, start_us: ts, dur_us: None });
        inner.open.entry(std::thread::current().id()).or_default().push(idx);
    }

    fn span_exit(&self, name: &'static str) {
        let ts = self.now_us();
        let mut inner = self.lock();
        let stack = inner.open.entry(std::thread::current().id()).or_default();
        match stack.pop() {
            None => inner.errors.push(TelemetryError::ExitWithoutEnter { name: name.to_string() }),
            Some(idx) => {
                let expected = inner.spans[idx].name;
                if expected != name {
                    inner.errors.push(TelemetryError::MismatchedExit {
                        expected: expected.to_string(),
                        got: name.to_string(),
                    });
                }
                let start = inner.spans[idx].start_us;
                inner.spans[idx].dur_us = Some(ts.saturating_sub(start));
            }
        }
    }

    fn counter_add(&self, counter: Counter, delta: u64) {
        if delta == 0 {
            return;
        }
        let ts = self.now_us();
        let mut inner = self.lock();
        inner.totals[counter.index()] += delta;
        let total = inner.totals[counter.index()];
        if inner.series.len() < SERIES_CAP {
            inner.series.push(CounterPoint { counter, ts_us: ts, delta, total });
        } else {
            inner.series_dropped += 1;
        }
    }

    fn event(&self, name: &'static str, detail: &str) {
        let ts = self.now_us();
        let mut inner = self.lock();
        let tid = inner.tid();
        if inner.events.len() < EVENT_CAP {
            inner.events.push(EventRec { name, detail: detail.to_string(), tid, ts_us: ts });
        } else {
            inner.events_dropped += 1;
        }
    }
}

/// Per-span-name aggregate in a [`TelemetryReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Number of completed (or still-open) instances.
    pub count: u64,
    /// Inclusive wall-clock total across instances, seconds. Nested
    /// child spans are *included* in their parent's total.
    pub total_s: f64,
    /// Longest single instance, seconds.
    pub max_s: f64,
}

/// Aggregated summary of everything a [`Recorder`] captured.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Span aggregates in first-enter order.
    pub spans: Vec<SpanSummary>,
    /// Nonzero counter totals in taxonomy order.
    pub counters: Vec<(String, u64)>,
    /// Events recorded (including any dropped past the retention cap).
    pub events: u64,
    /// Span-bookkeeping defects recorded (see [`TelemetryError`]).
    pub errors: u64,
    /// Recorder wall clock at aggregation time, seconds.
    pub wall_s: f64,
}

impl TelemetryReport {
    /// Inclusive wall total for one span name (0 if never entered).
    pub fn span_total_s(&self, name: &str) -> f64 {
        self.spans.iter().find(|s| s.name == name).map_or(0.0, |s| s.total_s)
    }

    /// Counter total by taxonomy name (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// `hit / (hit + miss)` for a counter pair, `None` when unobserved.
    pub fn hit_rate(&self, hit: Counter, miss: Counter) -> Option<f64> {
        let h = self.counter(hit.name());
        let m = self.counter(miss.name());
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }

    /// Render the aligned summary table (spans, then counters).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("telemetry summary ({:.3} s wall", self.wall_s));
        if self.errors > 0 {
            out.push_str(&format!(", {} span errors", self.errors));
        }
        out.push_str(")\n");
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "  {:<16} {:>8} {:>12} {:>12}\n",
                "span", "count", "total s", "max s"
            ));
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<16} {:>8} {:>12.6} {:>12.6}\n",
                    s.name, s.count, s.total_s, s.max_s
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("  {:<26} {:>14}\n", "counter", "total"));
            for (name, v) in &self.counters {
                out.push_str(&format!("  {:<26} {:>14}\n", name, v));
            }
        }
        if self.events > 0 {
            out.push_str(&format!("  {} event(s)\n", self.events));
        }
        out
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Validate that `s` is one complete JSON value (hand-rolled recursive
/// descent; the workspace vendors no serde). Used by the golden
/// Chrome-trace tests and the `tables telemetry` smoke to prove the
/// exporter's output parses.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > 128 {
        return Err("nesting too deep".to_string());
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                skip_ws(b, pos);
                parse_value(b, pos, depth + 1)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_value(b, pos, depth + 1)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at offset {pos}", *c as char)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5 || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at offset {pos}"));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at offset {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while pos_digit(b, *pos) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at offset {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at offset {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at offset {start}"));
        }
    }
    Ok(())
}

fn pos_digit(b: &[u8], pos: usize) -> bool {
    b.get(pos).is_some_and(u8::is_ascii_digit)
}

/// A recovered function's address extent `[lo, hi)`, for attributing
/// pcs to frames in [`collapse_pc_counts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncExtent {
    /// Frame name (function symbol).
    pub name: String,
    /// First text address covered, inclusive.
    pub lo: u32,
    /// One past the last text address covered.
    pub hi: u32,
}

/// Collapse a per-pc count histogram into flamegraph collapsed-stack
/// text (`root;frame count` lines, hottest first), keyed by recovered
/// function extents. Counts outside every extent fold into a `?`
/// frame. The output feeds any stock flamegraph renderer.
pub fn collapse_pc_counts(root: &str, counts: &[(u32, u64)], extents: &[FuncExtent]) -> String {
    let mut sorted: Vec<&FuncExtent> = extents.iter().filter(|e| e.hi > e.lo).collect();
    sorted.sort_by_key(|e| e.lo);
    let mut per_frame: HashMap<&str, u64> = HashMap::new();
    for &(pc, count) in counts {
        if count == 0 {
            continue;
        }
        let frame = match sorted.binary_search_by(|e| {
            if pc < e.lo {
                std::cmp::Ordering::Greater
            } else if pc >= e.hi {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => sorted[i].name.as_str(),
            Err(_) => "?",
        };
        *per_frame.entry(frame).or_insert(0) += count;
    }
    let mut rows: Vec<(&str, u64)> = per_frame.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut out = String::new();
    for (frame, count) in rows {
        out.push_str(&format!("{root};{frame} {count}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn null_telemetry_never_builds_details() {
        let called = Cell::new(false);
        let tel = NullTelemetry;
        let _g = SpanGuard::enter(&tel, "profile", || {
            called.set(true);
            String::from("expensive")
        });
        assert!(!called.get(), "detail closure must not run when T::ENABLED is false");
        const { assert!(!NullTelemetry::ENABLED) };
        const { assert!(!<&NullTelemetry as Telemetry>::ENABLED) };
    }

    #[test]
    fn recorder_aggregates_spans_and_counters() {
        let rec = Recorder::new();
        {
            let _outer = SpanGuard::enter(&rec, "sweep", || "4 points".to_string());
            for _ in 0..3 {
                let _inner = SpanGuard::enter(&rec, "evaluate", String::new);
                rec.counter_add(Counter::SweepPointsOk, 1);
            }
            rec.counter_add(Counter::EstimateCacheHit, 7);
            rec.counter_add(Counter::EstimateCacheMiss, 0); // zero deltas are dropped
            rec.event("sweep_done", "4/4");
        }
        let report = rec.report();
        assert_eq!(report.spans[0].name, "sweep");
        assert_eq!(report.spans[1].count, 3);
        assert_eq!(report.counter("sweep_points_ok"), 3);
        assert_eq!(report.counter("estimate_cache_hit"), 7);
        assert_eq!(report.counter("estimate_cache_miss"), 0);
        assert_eq!(report.hit_rate(Counter::EstimateCacheHit, Counter::EstimateCacheMiss), Some(1.0));
        assert_eq!(report.hit_rate(Counter::ProfileStageHit, Counter::ProfileStageMiss), None);
        assert_eq!(report.events, 1);
        assert_eq!(report.errors, 0);
        let table = report.render();
        assert!(table.contains("sweep"), "{table}");
        assert!(table.contains("sweep_points_ok"), "{table}");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_counter_tracks() {
        let rec = Recorder::new();
        {
            let _g = SpanGuard::enter(&rec, "profile", || "sb=true \"quoted\"\n".to_string());
            rec.counter_add(Counter::TraceInstalls, 2);
        }
        rec.event("diagnostic", "[synth] k0 fell back");
        let json = rec.chrome_trace().expect("balanced spans export");
        validate_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("trace_installs"), "{json}");
    }

    #[test]
    fn unbalanced_exits_are_typed_errors_not_panics() {
        let rec = Recorder::new();
        rec.span_exit("profile");
        assert_eq!(
            rec.chrome_trace(),
            Err(TelemetryError::ExitWithoutEnter { name: "profile".to_string() })
        );

        let rec = Recorder::new();
        rec.span_enter("profile", "");
        rec.span_exit("decompile");
        match rec.chrome_trace() {
            Err(TelemetryError::MismatchedExit { expected, got }) => {
                assert_eq!(expected, "profile");
                assert_eq!(got, "decompile");
            }
            other => panic!("expected MismatchedExit, got {other:?}"),
        }

        let rec = Recorder::new();
        rec.span_enter("cosimulate", "");
        match rec.chrome_trace() {
            Err(TelemetryError::UnclosedSpans { names }) => assert_eq!(names, ["cosimulate"]),
            other => panic!("expected UnclosedSpans, got {other:?}"),
        }
        assert_eq!(rec.report().errors, 0);
    }

    #[test]
    fn panicking_guard_leaves_span_open_for_post_mortem() {
        let rec = Recorder::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = SpanGuard::enter(&rec, "cosimulate", || "autcor00 -O2".to_string());
            let _h = SpanGuard::enter(&rec, "evaluate", String::new);
            panic!("mutant violation");
        }));
        assert!(result.is_err());
        let stack = rec.open_span_stack();
        assert_eq!(stack.len(), 2, "{stack:?}");
        assert!(stack[0].starts_with("cosimulate"), "{stack:?}");
        assert!(stack[1].starts_with("evaluate"), "{stack:?}");
    }

    #[test]
    fn recent_activity_orders_counter_deltas_and_events() {
        let rec = Recorder::new();
        rec.counter_add(Counter::HybridTrapEntries, 5);
        rec.event("diagnostic", "k1 rejected");
        rec.counter_add(Counter::HybridStoreMismatches, 1);
        let lines = rec.recent_activity(8);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("hybrid_trap_entries +5"), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("event diagnostic")), "{lines:?}");
        assert!(rec.recent_activity(1).len() == 1);
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e8,\"x\\n\",true,false,null,{}]}").unwrap();
        validate_json("  [\"\\u00e9\"]  ").unwrap();
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\":1} extra").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01").is_ok()); // lenient: digits parse greedily
    }

    #[test]
    fn collapse_maps_pcs_through_extents() {
        let extents = vec![
            FuncExtent { name: "main".to_string(), lo: 0x400000, hi: 0x400040 },
            FuncExtent { name: "kernel".to_string(), lo: 0x400040, hi: 0x4000c0 },
        ];
        let counts = vec![(0x400000, 3), (0x400044, 90), (0x4000b8, 10), (0x500000, 2), (0x400010, 0)];
        let text = collapse_pc_counts("autcor00", &counts, &extents);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "autcor00;kernel 100", "{text}");
        assert!(lines.contains(&"autcor00;main 3"), "{text}");
        assert!(lines.contains(&"autcor00;? 2"), "{text}");
    }

    #[test]
    fn counter_taxonomy_is_dense_and_named() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
    }
}
