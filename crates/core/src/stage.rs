//! The partitioning flow's one driver: staged and memoized.
//!
//! The pipeline is profile → decompile → partition → synthesize →
//! evaluate. A design-space sweep (platform clock × FPGA area budget ×
//! compiler level × partitioner knobs) enters it at hundreds of
//! points whose *inputs mostly repeat*: the software profile does not
//! depend on the platform, the recovered CDFG does not depend on the area
//! budget, and a kernel's synthesis result depends on neither. A one-shot
//! caller is the one-point case of the same flow
//! (`StagedFlow::new(&binary).run(&options)`).
//!
//! [`StagedFlow`] splits the pipeline into explicit stages with cached
//! artifacts:
//!
//! | stage | input → output | invalidated by |
//! |---|---|---|
//! | [`profile`](StagedFlow::profile) | binary → [`Exit`] (cycles + block counts + branch bias) | [`SimConfig`] (cycle model, step budget, stack) |
//! | [`decompile`](StagedFlow::decompile) | binary → [`DecompiledProgram`] (CDFG, never changed after this stage) | [`DecompileOptions`] |
//! | [`estimate`](StagedFlow::estimate) | profile + CDFG → [`EstimatedProgram`] (the stage-2 CDFG shared, block counts beside it, candidate loops, synthesis memo) | `DecompileOptions` or `SimConfig` |
//! | [`evaluate`](StagedFlow::evaluate) | artifact + platform/budget/options → [`StagedReport`] | nothing cached — cheap selection + arithmetic |
//! | [`cosimulate`](StagedFlow::cosimulate) | partition → [`crate::cosim::CosimReport`] (executed-hardware verification + measured-vs-analytic cycles) | nothing cached — each call runs the hybrid machine |
//!
//! Platform clock, FPGA area budget, and every [`PartitionOptions`] knob
//! live entirely in the `evaluate` stage, so a clock × budget sweep pays
//! for simulation, CDFG recovery, candidate harvesting, and (via the
//! per-kernel [`EstimateCache`]) each kernel's synthesis **once**, then
//! evaluates points at selection-loop speed. The `binpart-explore` crate
//! builds its grid sweeps on exactly this structure.
//!
//! Caching never changes a result: a flow whose caches are warm from
//! other option points evaluates bit-identically to a fresh flow
//! (asserted across the benchmark × opt-level matrix by
//! `tests/staged_differential.rs`).
//!
//! Artifacts are built at most once per key even under concurrency: each
//! cache slot is guarded by its own [`OnceLock`], so parallel sweep
//! points asking for different artifacts never serialize on each other.
//!
//! # Example
//!
//! ```
//! use binpart_core::flow::FlowOptions;
//! use binpart_core::stage::StagedFlow;
//! use binpart_minicc::{compile, OptLevel};
//! use binpart_platform::Platform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let binary = compile(
//!     "int a[64];
//!      int main(void) { int i; int s = 0;
//!        for (i = 0; i < 64; i++) a[i] = i * 3;
//!        for (i = 0; i < 64; i++) s += a[i];
//!        return s; }",
//!     OptLevel::O1,
//! )?;
//! let staged = StagedFlow::new(&binary);
//! // 5 clocks × 3 budgets = 15 points, one profile + one decompile +
//! // one synthesis per kernel in total.
//! for clock in [40e6, 100e6, 200e6, 300e6, 400e6] {
//!     for budget in [15_000u64, 40_000, 250_000] {
//!         let mut options = FlowOptions {
//!             platform: Platform::mips_virtex2(clock),
//!             ..Default::default()
//!         };
//!         options.partition.area_budget_gates = budget;
//!         let report = staged.evaluate(&options)?;
//!         assert!(report.hybrid.app_speedup >= 1.0);
//!     }
//! }
//! # Ok(())
//! # }
//! ```

use crate::decompile::{self, DecompileStats, DecompiledProgram};
use crate::diag::Diagnostic;
use crate::flow::{FlowError, FlowOptions, FlowReport};
use crate::lift::DecompileOptions;
use crate::partition::{
    harvest_candidates, partition_with_candidates, CandidateSet, Partition, PartitionOptions,
};
use binpart_cdfg::ir::BlockCounts;
use binpart_mips::sim::{Exit, Machine, SimConfig};
use binpart_mips::Binary;
use binpart_platform::{HardwareKernel, HybridReport};
use binpart_synth::{EstimateCache, KeyMap};
use binpart_telemetry::{Counter, NullTelemetry, SpanGuard, Telemetry};
use std::sync::{Arc, Mutex, OnceLock};

/// The product of the [`estimate`](StagedFlow::estimate) stage: the
/// decompile stage's CDFG, the profile's block counts beside it, its
/// harvested hardware candidates, and a shared per-kernel synthesis memo.
/// Everything the `evaluate` stage reads.
#[derive(Debug)]
pub struct EstimatedProgram {
    /// The decompiled program: the [`decompile`](StagedFlow::decompile)
    /// stage's own artifact, shared, not copied.
    pub program: Arc<DecompiledProgram>,
    /// Profiled block execution counts, one table per entry of
    /// `program.functions`.
    pub counts: Vec<BlockCounts>,
    /// Hardware candidates (outermost call-free loop nests).
    pub candidates: CandidateSet,
    /// Memoized per-kernel synthesis results, shared by every evaluation
    /// of this artifact.
    pub cache: EstimateCache,
    /// Profiled all-software cycles.
    pub sw_cycles: u64,
    /// `$v0` at software exit.
    pub sw_exit_value: u32,
}

/// A [`FlowReport`] without the program and its block counts — what a
/// sweep point needs. Identical numbers to [`StagedFlow::run`]. The
/// default is the empty report [`StagedFlow::evaluate_into`] starts from.
#[derive(Debug, Clone, Default)]
pub struct StagedReport {
    /// Profiled all-software cycles.
    pub sw_cycles: u64,
    /// Value in `$v0` when the software run exited.
    pub sw_exit_value: u32,
    /// Hybrid execution-time/energy evaluation.
    pub hybrid: HybridReport,
    /// Decompilation statistics (E4).
    pub stats: DecompileStats,
    /// The partition (kernels, areas, decision log).
    pub partition: Partition,
    /// Per-region degradation records (decompiler fallbacks + partitioner
    /// synth rejections). See the [crate docs](crate) failure policy.
    pub diagnostics: Vec<Diagnostic>,
}

type Slot<T> = Arc<OnceLock<Result<Arc<T>, FlowError>>>;

/// The staged flow over one binary. See the module docs for the stage
/// table and cache-invalidation rules.
///
/// Generic over a [`Telemetry`] sink, defaulting to the zero-cost
/// [`NullTelemetry`] (the generic parameter compiles away; see
/// `binpart_telemetry`'s crate docs for the contract). An instrumented
/// flow ([`with_telemetry`](StagedFlow::with_telemetry)) emits a span
/// per stage execution, `OnceLock`-slot hit/miss counters per stage
/// call, [`EstimateCache`] memo deltas per evaluation, superblock
/// engine counters from the profile run, and every
/// [`Diagnostic`] as a structured event.
pub struct StagedFlow<'b, T: Telemetry = NullTelemetry> {
    binary: &'b Binary,
    telemetry: T,
    profiles: Mutex<KeyMap<SimConfig, Slot<Exit>>>,
    programs: Mutex<KeyMap<DecompileOptions, Slot<DecompiledProgram>>>,
    estimated: Mutex<KeyMap<(DecompileOptions, SimConfig), Slot<EstimatedProgram>>>,
}

/// Cached stage access with the transient-error rule: the slot's
/// `get_or_init` runs `init` at most once per slot, but a **transient**
/// failure ([`FlowError::is_transient`] — fuel/step-budget trips) is
/// evicted from the map immediately, so the next call with the same key
/// recomputes instead of serving a latched budget trip. Deterministic
/// failures (the paper's jump-table cases) stay cached as errors.
/// The second element reports whether *this* call ran `init` (a cache
/// miss) — the hit/miss attribution the telemetry counters record.
fn get_stage<K: std::hash::Hash + Eq + Clone, T>(
    map: &Mutex<KeyMap<K, Slot<T>>>,
    key: &K,
    init: impl FnOnce() -> Result<Arc<T>, FlowError>,
) -> (Result<Arc<T>, FlowError>, bool) {
    let s = {
        // A panic while holding the lock poisons it; the map itself is
        // always in a consistent state (single-statement updates), so
        // recover rather than propagate the panic into every later stage
        // call.
        let mut map = map.lock().unwrap_or_else(|p| p.into_inner());
        // A built artifact is served under the lock: a warm stage call
        // clones only the artifact's `Arc`, not its slot's.
        if let Some(Some(Ok(built))) = map.get(key).map(|s| s.get()) {
            return (Ok(Arc::clone(built)), false);
        }
        map.entry(key.clone())
            .or_insert_with(|| Arc::new(OnceLock::new()))
            .clone()
    };
    let mut ran = false;
    let result = s
        .get_or_init(|| {
            ran = true;
            init()
        })
        .clone();
    if let Err(e) = &result {
        if e.is_transient() {
            let mut map = map.lock().unwrap_or_else(|p| p.into_inner());
            // Only evict *this* slot — a concurrent caller may already
            // have replaced it with a fresh one mid-recompute.
            if map.get(key).is_some_and(|cur| Arc::ptr_eq(cur, &s)) {
                map.remove(key);
            }
        }
    }
    (result, ran)
}

impl<'b> StagedFlow<'b> {
    /// A staged flow over `binary` with empty caches and no telemetry.
    pub fn new(binary: &'b Binary) -> StagedFlow<'b> {
        StagedFlow::with_telemetry(binary, NullTelemetry)
    }
}

impl<'b, T: Telemetry> StagedFlow<'b, T> {
    /// A staged flow over `binary` reporting through `telemetry` (pass a
    /// `&Recorder` to share one sink across flows or sweep workers).
    pub fn with_telemetry(binary: &'b Binary, telemetry: T) -> StagedFlow<'b, T> {
        StagedFlow {
            binary,
            telemetry,
            profiles: Mutex::default(),
            programs: Mutex::default(),
            estimated: Mutex::default(),
        }
    }

    /// The telemetry sink this flow reports through.
    pub fn telemetry(&self) -> &T {
        &self.telemetry
    }

    /// The binary this flow stages.
    pub fn binary(&self) -> &Binary {
        self.binary
    }

    /// Stage 1 — software run: cycles + per-instruction counts + branch
    /// bias under `sim`, simulated once per distinct [`SimConfig`] by
    /// [`Machine::run`]. The taken counts feed the partitioner's measured
    /// loop-entry estimates. Under an instrumented flow the run's
    /// trace-cache counters are reported too.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Sim`] if the run faults or exceeds the step
    /// budget.
    pub fn profile(&self, sim: SimConfig) -> Result<Arc<Exit>, FlowError> {
        let (result, ran) = get_stage(&self.profiles, &sim, || {
            let _span = SpanGuard::enter(&self.telemetry, "profile", || {
                format!("max_steps={}", sim.max_steps)
            });
            let mut machine = Machine::with_config(self.binary, sim)?;
            let exit = machine.run()?;
            if T::ENABLED {
                let st = machine.trace_cache_stats();
                self.telemetry
                    .counter_add(Counter::TraceHeatPromotions, st.heat_promotions);
                self.telemetry
                    .counter_add(Counter::TraceInstalls, st.installs);
                self.telemetry.counter_add(Counter::TracePasses, st.passes);
                self.telemetry
                    .counter_add(Counter::TraceSideExits, st.side_exits);
                self.telemetry
                    .counter_add(Counter::TraceChainTransfers, st.chain_transfers);
                self.telemetry
                    .counter_add(Counter::TraceInvalidations, st.invalidations);
            }
            Ok(Arc::new(exit))
        });
        self.telemetry.counter_add(
            if ran {
                Counter::ProfileStageMiss
            } else {
                Counter::ProfileStageHit
            },
            1,
        );
        result
    }

    /// Stage 2 — CDFG recovery, profile-free: later stages share the
    /// artifact and never change it. Decompiled once per distinct
    /// [`DecompileOptions`]; failures (the paper's jump-table cases) are
    /// cached as errors.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Decompile`] when recovery fails.
    pub fn decompile(
        &self,
        options: DecompileOptions,
    ) -> Result<Arc<DecompiledProgram>, FlowError> {
        let (result, ran) = get_stage(&self.programs, &options, || {
            let _span = SpanGuard::enter(&self.telemetry, "decompile", || {
                format!("jump_tables={}", options.recover_jump_tables)
            });
            Ok(Arc::new(decompile::decompile(self.binary, options)?))
        });
        self.telemetry.counter_add(
            if ran {
                Counter::DecompileStageMiss
            } else {
                Counter::DecompileStageHit
            },
            1,
        );
        result
    }

    /// Stage 3 — block counts, candidate harvesting, and the shared
    /// synthesis memo. Built once per (decompile options, sim config) pair
    /// from the stage-1/-2 artifacts.
    ///
    /// # Errors
    ///
    /// Propagates stage-1/-2 failures.
    pub fn estimate(
        &self,
        decompile_options: DecompileOptions,
        sim: SimConfig,
    ) -> Result<Arc<EstimatedProgram>, FlowError> {
        let (result, ran) = get_stage(&self.estimated, &(decompile_options, sim), || {
            let exit = self.profile(sim)?;
            let program = self.decompile(decompile_options)?;
            let _span = SpanGuard::enter(&self.telemetry, "estimate", String::new);
            let counts = decompile::block_counts(&program, &exit.profile);
            let candidates =
                harvest_candidates(&program, &counts, self.binary, &exit.profile, &sim.cycles);
            Ok(Arc::new(EstimatedProgram {
                program,
                counts,
                candidates,
                cache: EstimateCache::new(),
                sw_cycles: exit.cycles,
                sw_exit_value: exit.reg(binpart_mips::Reg::V0),
            }))
        });
        self.telemetry.counter_add(
            if ran {
                Counter::EstimateStageMiss
            } else {
                Counter::EstimateStageHit
            },
            1,
        );
        result
    }

    /// Stage 4 — partition selection + platform evaluation for one option
    /// set. Uncached (it is selection-loop cheap); every expensive input
    /// comes from the stage-3 artifact, including memoized per-kernel
    /// synthesis. A fresh report filled by
    /// [`evaluate_into`](StagedFlow::evaluate_into).
    ///
    /// # Errors
    ///
    /// Propagates stage-1/-2 failures.
    pub fn evaluate(&self, options: &FlowOptions) -> Result<StagedReport, FlowError> {
        let mut report = StagedReport::default();
        self.evaluate_into(options, &mut report)?;
        Ok(report)
    }

    /// [`evaluate`](StagedFlow::evaluate) written into a caller-owned
    /// report: the stage-3 artifact is looked up, then
    /// [`evaluate_artifact_into`](StagedFlow::evaluate_artifact_into)
    /// rewrites every field of `report`. A caller evaluating many points
    /// keeps one report, so its lists keep their buffers.
    ///
    /// # Errors
    ///
    /// Propagates stage-1/-2 failures; `report` is then left as it was.
    pub fn evaluate_into(
        &self,
        options: &FlowOptions,
        report: &mut StagedReport,
    ) -> Result<(), FlowError> {
        let est = self.estimate(options.decompile, options.sim)?;
        self.evaluate_artifact_into(&est, options, report);
        Ok(())
    }

    /// Stage 4 against an artifact already in hand: `est` must be this
    /// flow's [`estimate`](StagedFlow::estimate) for `options.decompile`
    /// and `options.sim`, which a caller evaluating many points with the
    /// same two keeps instead of looking it up per point. Every field of
    /// `report` is rewritten: the partition's and the hybrid report's
    /// lists are cleared and refilled in place and the diagnostics reuse
    /// their strings, so a warm point written into a used report
    /// allocates nothing (unless the partitioner diagnoses a synthesis
    /// failure), and the result does not depend on what `report` held.
    ///
    /// Attribution under an instrumented flow: an `evaluate` span, the
    /// artifact's [`EstimateCache`] hit/miss delta (approximate under
    /// concurrent evaluations of the same artifact), and a `diagnostic`
    /// event per degradation record.
    pub fn evaluate_artifact_into(
        &self,
        est: &EstimatedProgram,
        options: &FlowOptions,
        report: &mut StagedReport,
    ) {
        let _span = SpanGuard::enter(&self.telemetry, "evaluate", || {
            format!(
                "clock={:.0}MHz budget={}",
                options.platform.cpu.clock_hz / 1e6,
                options.partition.area_budget_gates
            )
        });
        let (h0, m0) = if T::ENABLED {
            (est.cache.hits(), est.cache.misses())
        } else {
            (0, 0)
        };
        evaluate_artifact(est, options, report);
        if T::ENABLED {
            self.telemetry.counter_add(
                Counter::EstimateCacheHit,
                est.cache.hits().saturating_sub(h0),
            );
            self.telemetry.counter_add(
                Counter::EstimateCacheMiss,
                est.cache.misses().saturating_sub(m0),
            );
            emit_diagnostics(&self.telemetry, &report.diagnostics);
        }
    }

    /// The whole flow for one option set: [`evaluate`](StagedFlow::evaluate)
    /// plus the decompiled program (the stage artifact's `Arc`) and its
    /// block counts, returned as a [`FlowReport`]. The entry point for
    /// one-shot callers; sweeps should prefer `evaluate`.
    ///
    /// # Errors
    ///
    /// Propagates stage-1/-2 failures.
    pub fn run(&self, options: &FlowOptions) -> Result<FlowReport, FlowError> {
        let est = self.estimate(options.decompile, options.sim)?;
        let mut report = StagedReport::default();
        self.evaluate_artifact_into(&est, options, &mut report);
        Ok(FlowReport {
            sw_cycles: report.sw_cycles,
            sw_exit_value: report.sw_exit_value,
            hybrid: report.hybrid,
            partition: report.partition,
            program: Arc::clone(&est.program),
            counts: est.counts.clone(),
            diagnostics: report.diagnostics,
        })
    }
}

impl<T: Telemetry> std::fmt::Debug for StagedFlow<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn len<K, T>(m: &Mutex<KeyMap<K, Slot<T>>>) -> usize {
            m.lock().unwrap_or_else(|p| p.into_inner()).len()
        }
        f.debug_struct("StagedFlow")
            .field("profiles", &len(&self.profiles))
            .field("programs", &len(&self.programs))
            .field("estimated", &len(&self.estimated))
            .finish()
    }
}

/// Emit every degradation record as a structured telemetry event (plus
/// the `diagnostics` counter). Callers gate on `T::ENABLED`.
pub(crate) fn emit_diagnostics<T: Telemetry>(tel: &T, diagnostics: &[Diagnostic]) {
    tel.counter_add(Counter::Diagnostics, diagnostics.len() as u64);
    for d in diagnostics {
        tel.event("diagnostic", &d.to_string());
    }
}

/// Partition + evaluate one option point against a stage-3 artifact into
/// `report`, with synthesis served from the artifact's memo.
fn evaluate_artifact(est: &EstimatedProgram, options: &FlowOptions, report: &mut StagedReport) {
    let mut popts: PartitionOptions = options.partition.clone();
    popts.cpu_clock_hz = options.platform.cpu.clock_hz;
    let partition = &mut report.partition;
    partition_with_candidates(
        &est.program,
        &est.counts,
        &est.candidates,
        est.sw_cycles,
        &popts,
        &options.budget,
        &options.library,
        &est.cache,
        partition,
    );
    let kernels = partition.selected().map(|(k, c)| HardwareKernel {
        invocations: c.invocations,
        hw_cycles: k.synth.timing.hw_cycles,
        clock_hz: k.synth.timing.clock_mhz * 1e6,
        sw_cycles_replaced: c.sw_cycles,
        area_gates: k.synth.area.gate_equivalents,
        bram_transfer_words: if k.mem_in_bram { k.bram_bytes / 4 } else { 0 },
    });
    options
        .platform
        .hybrid_into(est.sw_cycles, kernels, &mut report.hybrid);
    let program = est.program.diagnostics.iter();
    refill(
        &mut report.diagnostics,
        program.chain(&report.partition.diagnostics),
    );
    report.sw_cycles = est.sw_cycles;
    report.sw_exit_value = est.sw_exit_value;
    report.stats = est.program.stats;
}

/// Rewrites `dst` as clones of `src`'s records, cloning each into a
/// record `dst` already holds ([`Clone::clone_from`], which keeps the
/// strings' buffers) before pushing new ones.
fn refill<'a>(dst: &mut Vec<Diagnostic>, src: impl Iterator<Item = &'a Diagnostic>) {
    let mut len = 0;
    for d in src {
        match dst.get_mut(len) {
            Some(slot) => slot.clone_from(d),
            None => dst.push(d.clone()),
        }
        len += 1;
    }
    dst.truncate(len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use binpart_minicc::{compile, OptLevel};

    fn kernel_program() -> &'static str {
        "int a[256]; int coef[16];
         int main(void) {
           int i; int j; int acc; int out = 0;
           for (i = 0; i < 256; i++) a[i] = i & 0xff;
           for (i = 0; i < 16; i++) coef[i] = i + 1;
           for (j = 0; j < 200; j++) {
             acc = 0;
             for (i = 0; i < 16; i++) acc += a[j + i] * coef[i];
             out += acc >> 6;
           }
           return out;
         }"
    }

    #[test]
    fn artifacts_are_built_once() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let staged = StagedFlow::new(&binary);
        let options = FlowOptions::default();
        let a = staged.estimate(options.decompile, options.sim).unwrap();
        let b = staged.estimate(options.decompile, options.sim).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Two evaluations at different budgets share kernel synthesis.
        let _ = staged.evaluate(&options).unwrap();
        let misses_after_first = a.cache.misses();
        let mut o2 = options.clone();
        o2.partition.area_budget_gates = 40_000;
        let _ = staged.evaluate(&o2).unwrap();
        assert!(a.cache.hits() > 0, "second evaluation must hit the memo");
        assert_eq!(
            a.cache.misses(),
            misses_after_first,
            "no new synthesis for a budget-only change"
        );
    }

    #[test]
    fn decompile_failures_are_cached_errors() {
        let src = "int main(void) { int i; int acc = 0;
            for (i = 0; i < 6; i++) {
              switch (i) {
                case 0: acc += 1; break;
                case 1: acc += 2; break;
                case 2: acc += 4; break;
                case 3: acc += 8; break;
                case 4: acc += 16; break;
                case 5: acc += 32; break;
              }
            }
            return acc; }";
        let binary = compile(src, OptLevel::O2).unwrap();
        let staged = StagedFlow::new(&binary);
        let options = FlowOptions::default();
        assert!(matches!(
            staged.evaluate(&options),
            Err(FlowError::Decompile(_))
        ));
        // Again — served from the cached error, still an error.
        assert!(matches!(
            staged.evaluate(&options),
            Err(FlowError::Decompile(_))
        ));
        // Recovery enabled is a different artifact and succeeds.
        let mut with_recovery = options.clone();
        with_recovery.decompile.recover_jump_tables = true;
        assert!(staged.evaluate(&with_recovery).is_ok());
        // The deterministic failure is *latched*: its slot stays in the
        // map (contrast with transient errors below).
        assert!(staged
            .programs
            .lock()
            .unwrap()
            .contains_key(&options.decompile));
    }

    #[test]
    fn transient_budget_trips_are_not_latched() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let staged = StagedFlow::new(&binary);
        let sim = SimConfig {
            max_steps: 50, // trips the step watchdog immediately
            ..SimConfig::default()
        };
        let err = staged.profile(sim).unwrap_err();
        assert!(
            matches!(
                err,
                FlowError::Sim(binpart_mips::sim::SimError::MaxStepsExceeded { .. })
            ),
            "{err}"
        );
        assert!(err.is_transient());
        // The budget trip must not be cached: the slot is evicted, so the
        // same key recomputes (and trips again — proving init re-ran, not
        // a latched error served back).
        assert!(
            !staged.profiles.lock().unwrap().contains_key(&sim),
            "transient error must be evicted from the stage cache"
        );
        let err2 = staged.profile(sim).unwrap_err();
        assert!(err2.is_transient());
        assert!(!staged.profiles.lock().unwrap().contains_key(&sim));
        // A raised budget (the rerun scenario) succeeds cleanly.
        let sim = SimConfig {
            max_steps: 500_000_000,
            ..sim
        };
        assert!(staged.profile(sim).is_ok());
    }

    #[test]
    fn telemetry_attributes_stage_hits_and_misses() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let rec = binpart_telemetry::Recorder::new();
        let staged = StagedFlow::with_telemetry(&binary, &rec);
        let options = FlowOptions::default();
        let first = staged.evaluate(&options).unwrap();
        let _ = staged.evaluate(&options).unwrap();
        assert_eq!(rec.counter_total(Counter::ProfileStageMiss), 1);
        assert_eq!(rec.counter_total(Counter::ProfileStageHit), 0);
        assert_eq!(rec.counter_total(Counter::DecompileStageMiss), 1);
        assert_eq!(rec.counter_total(Counter::EstimateStageMiss), 1);
        assert_eq!(rec.counter_total(Counter::EstimateStageHit), 1);
        assert!(
            rec.counter_total(Counter::EstimateCacheMiss) > 0,
            "first evaluation synthesizes kernels"
        );
        assert!(
            rec.counter_total(Counter::EstimateCacheHit) > 0,
            "second evaluation hits the synthesis memo"
        );
        let report = rec.report();
        assert!(report.span_total_s("profile") > 0.0);
        assert!(report.span_total_s("evaluate") > 0.0);
        // Instrumentation must not change results.
        let plain = StagedFlow::new(&binary).evaluate(&options).unwrap();
        assert_eq!(
            plain.hybrid.app_speedup.to_bits(),
            first.hybrid.app_speedup.to_bits()
        );
        assert_eq!(plain.partition.log(), first.partition.log());
    }

    #[test]
    fn estimate_stage_does_not_latch_transient_profile_errors() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let staged = StagedFlow::new(&binary);
        let mut options = FlowOptions::default();
        options.sim.max_steps = 50;
        let err = staged.estimate(options.decompile, options.sim).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(staged.estimated.lock().unwrap().is_empty());
        // Rerun with a workable budget: recomputes and succeeds.
        options.sim.max_steps = 500_000_000;
        let est = staged.estimate(options.decompile, options.sim).unwrap();
        assert!(est.sw_cycles > 0);
    }
}
