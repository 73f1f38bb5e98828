//! Cycle-accurate co-simulation: **execute** the partitioned hardware,
//! don't just estimate it.
//!
//! [`StagedFlow::cosimulate`] is the flow's verification/measurement
//! stage. It takes the partition the `evaluate` stage selected and runs
//! the whole program on the hybrid machine
//! ([`binpart_mips::hybrid::HybridMachine`]): software on the fast
//! simulator, each kernel region dispatched to its FSMD executor
//! ([`binpart_hwsim::KernelAccel`]) — lowered from the kernel's own
//! synthesis result (`SelectedKernel::synth`), so it runs the very block
//! schedules and initiation intervals the analytic estimate priced,
//! executed state by state against a shared memory model, with the
//! CPU↔FPGA invocation and block-RAM transfer overheads from
//! `binpart_platform` charged per the measured invocation counts.
//!
//! Two results come out:
//!
//! * **Verification** — the hybrid run's architectural [`Exit`] is
//!   compared bit-for-bit against the pure-software reference
//!   ([`CosimReport::exit_bit_identical`]), and every hardware invocation's
//!   data-section store sequence is differenced against the software
//!   oracle's ([`CosimReport::store_mismatches`] counts divergences —
//!   zero means the executed datapath is architecturally exact).
//! * **Measurement** — per kernel, the measured hardware cycles vs the
//!   analytic estimate ([`KernelCosim::error_pct`]), the measured software
//!   cycles replaced, and the measured invocation count; plus a
//!   [`HybridReport`] recomputed from measured numbers
//!   ([`CosimReport::measured`]) next to the analytic one
//!   ([`CosimReport::estimated`]). The `tables` harness aggregates the
//!   per-kernel estimate error across the benchmark × OptLevel matrix into
//!   `BENCH_sim.json`.

use crate::decompile::{function_end_after, region_machine_extent, region_pc_range};
use crate::diag::{Diagnostic, FlowStage};
use crate::flow::{FlowError, FlowOptions};
use crate::partition::Partition;
use crate::stage::{EstimatedProgram, StagedFlow};
use binpart_hwsim::{AccelBuildError, HwProfile, HwRecorder, KernelAccel, KernelSet};
use binpart_mips::hybrid::{AccelOutcome, Accelerator, HybridMachine, RegionSpec};
use binpart_mips::sim::{Exit, Memory, SimError};
use binpart_platform::{HardwareKernel, HybridReport};
use binpart_telemetry::{Counter, SpanGuard, Telemetry};
use std::fmt;
use std::sync::Arc;

/// Co-simulation failure: the hybrid run itself could not complete.
/// (Per-kernel problems — unmappable accelerators, store divergences — are
/// *degraded*, not errors: they land on [`CosimReport::diagnostics`].)
#[derive(Debug, Clone, PartialEq)]
pub enum CosimError {
    /// The hybrid machine's software side faulted or tripped its step
    /// watchdog.
    Hybrid(SimError),
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosimError::Hybrid(e) => write!(f, "hybrid run failed: {e}"),
        }
    }
}

impl std::error::Error for CosimError {}

/// Per-kernel co-simulation result.
#[derive(Debug, Clone)]
pub struct KernelCosim {
    /// Kernel name, shared with the partition's kernel.
    pub name: Arc<str>,
    /// Could the kernel be packaged as an accelerator? `false` when a
    /// live-in had no recoverable CPU-state source (the kernel ran in
    /// software; nothing was measured).
    pub mapped: bool,
    /// Measured region entries (trap count).
    pub invocations: u64,
    /// Loop entries the partitioner estimated from the profile.
    pub invocations_estimated: u64,
    /// Invocations the hardware executed.
    pub hw_invocations: u64,
    /// Invocations declined (unmapped kernel) or faulted in hardware.
    pub not_executed: u64,
    /// Measured hardware cycles, summed over executed invocations.
    pub hw_cycles_measured: u64,
    /// The analytic estimate ([`binpart_synth::KernelTiming::hw_cycles`]).
    pub hw_cycles_estimated: u64,
    /// Measured software cycles the executed invocations replaced.
    pub sw_cycles_replaced: u64,
    /// The profiled software cycles the partitioner attributed to the
    /// region.
    pub sw_cycles_estimated: u64,
    /// Invocations whose data-section store sequence diverged from the
    /// software oracle.
    pub store_mismatches: u64,
    /// `100 · (measured − estimated) / estimated` hardware cycles, when
    /// the kernel executed at least once.
    pub error_pct: Option<f64>,
    /// The hardware-side profile (per-state occupancy, cycle attribution,
    /// bus log, first-invocation VCD). Present only under an instrumented
    /// flow (`StagedFlow::with_telemetry`) for mapped kernels — the
    /// default `NullTelemetry` path takes the uninstrumented accelerator
    /// and produces no profile.
    pub hw_profile: Option<HwProfile>,
}

/// The co-simulation stage's result. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct CosimReport {
    /// The pure-software reference cycles.
    pub sw_cycles: u64,
    /// Architectural results of the hybrid run: registers, exit reason,
    /// and totals must be bit-identical to the reference.
    pub exit_bit_identical: bool,
    /// The hybrid run's exit (for diagnostics when not identical).
    pub hybrid_exit: Exit,
    /// Per-kernel measurements.
    pub kernels: Vec<KernelCosim>,
    /// Kernels that could not be mapped to hardware.
    pub unmapped_kernels: usize,
    /// Hybrid evaluation recomputed from **measured** cycles/invocations
    /// (block-RAM transfer words charged; unexecuted kernels excluded).
    pub measured: HybridReport,
    /// The analytic evaluation the `evaluate` stage produced.
    pub estimated: HybridReport,
    /// Per-region degradations observed by this stage: kernels whose
    /// accelerator could not be packaged ([`FlowStage::AccelBuild`]) and
    /// kernels whose executed stores diverged from the software oracle
    /// ([`FlowStage::Cosim`]), plus everything the decompiler/partitioner
    /// recorded upstream.
    pub diagnostics: Vec<Diagnostic>,
}

impl CosimReport {
    /// Total data-store divergences across kernels (zero = the executed
    /// hardware is architecturally exact).
    pub fn store_mismatches(&self) -> u64 {
        self.kernels.iter().map(|k| k.store_mismatches).sum()
    }

    /// Total hardware-executed invocations.
    pub fn hw_invocations(&self) -> u64 {
        self.kernels.iter().map(|k| k.hw_invocations).sum()
    }

    /// Mean absolute measured-vs-analytic hardware-cycle error, percent,
    /// over kernels that executed (`None` when none did).
    pub fn mean_abs_error_pct(&self) -> Option<f64> {
        let errs: Vec<f64> = self
            .kernels
            .iter()
            .filter_map(|k| k.error_pct)
            .map(f64::abs)
            .collect();
        if errs.is_empty() {
            return None;
        }
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    }

    /// Maximum absolute estimate error, percent.
    pub fn max_abs_error_pct(&self) -> Option<f64> {
        self.kernels
            .iter()
            .filter_map(|k| k.error_pct)
            .map(f64::abs)
            .fold(None, |m, e| Some(m.map_or(e, |m: f64| m.max(e))))
    }
}

/// `hw_invoke` spans emitted per kernel per co-simulation: the first few
/// invocations land on the shared Chrome-trace timeline; the rest are
/// profiled (recorders see every invocation) but not span-logged, so a
/// hot kernel cannot flood the trace.
const HW_SPAN_CAP: u64 = 8;

/// The instrumented [`Accelerator`]: dispatches through the same
/// [`KernelSet`] as the uninstrumented path, but drives the
/// [`HwRecorder`] of each mapped kernel and merges accelerator invocations
/// into the software span timeline. Execution semantics are identical —
/// the differential suite asserts the instrumented flow stays
/// bit-identical to the uninstrumented one.
struct InstrumentedAccel<'a, 'f, T: Telemetry> {
    set: &'a KernelSet<'f>,
    /// Per region; a kernel without a recorder runs uninstrumented.
    recorders: &'a mut [Option<HwRecorder>],
    names: &'a [String],
    span_budget: Vec<u64>,
    /// Whether the current invocation opened a `hw_invoke` span: its
    /// software shadow then gets a `sw_shadow` span beside it.
    shadow_span: bool,
    tel: &'a T,
}

impl<T: Telemetry> Accelerator for InstrumentedAccel<'_, '_, T> {
    fn invoke(&mut self, region: usize, regs: &[u32; 32], mem: &Memory) -> AccelOutcome {
        let Some(accel) = self.set.kernels.get(region).and_then(|k| k.as_ref()) else {
            return AccelOutcome::Declined;
        };
        let budget = &mut self.span_budget[region];
        self.shadow_span = *budget > 0;
        let span = if *budget > 0 {
            *budget -= 1;
            Some(SpanGuard::enter(self.tel, "hw_invoke", || {
                self.names.get(region).cloned().unwrap_or_default()
            }))
        } else {
            None
        };
        let result = match self.recorders.get_mut(region).and_then(Option::as_mut) {
            Some(rec) => accel.execute_with(regs, mem, rec),
            None => accel.execute(regs, mem),
        };
        drop(span);
        match result {
            Ok(inv) => AccelOutcome::Executed(inv),
            Err(_) => AccelOutcome::Faulted,
        }
    }

    fn shadow_begin(&mut self, region: usize) {
        if self.shadow_span {
            let name = self.names.get(region).map_or("", String::as_str);
            self.tel.span_enter("sw_shadow", name);
        }
    }

    fn shadow_end(&mut self, _region: usize) {
        if std::mem::take(&mut self.shadow_span) {
            self.tel.span_exit("sw_shadow");
        }
    }
}

/// The selected kernels packaged for the hybrid machine: region `r` is
/// `specs[r]`, dispatched to `set.kernels[r]` (`None` when no accelerator
/// could be built) and reported as partition kernel `spec_kernel[r]`.
struct Packaged<'f> {
    specs: Vec<RegionSpec>,
    set: KernelSet<'f>,
    spec_kernel: Vec<usize>,
    /// Per partition kernel: whether its accelerator was built.
    mapped: Vec<bool>,
}

impl<T: Telemetry> StagedFlow<'_, T> {
    /// Packages each kernel of `partition` as a hybrid-machine region and
    /// an FSMD accelerator lowered from the kernel's kept synthesis
    /// schedule (the `accel_compile` span), recording packaging rejections
    /// on `diagnostics`.
    fn package<'e>(
        &self,
        est: &'e EstimatedProgram,
        partition: &Partition,
        diagnostics: &mut Vec<Diagnostic>,
    ) -> Packaged<'e> {
        let _span = SpanGuard::enter(self.telemetry(), "accel_compile", String::new);
        let mut p = Packaged {
            specs: Vec::new(),
            set: KernelSet::default(),
            spec_kernel: Vec::new(),
            mapped: vec![false; partition.kernels.len()],
        };
        for (ki, (k, c)) in partition.selected().enumerate() {
            let f = &est.program.functions[c.func_index];
            let Some((lo, hi)) = region_pc_range(f, &c.blocks) else {
                continue;
            };
            let fn_end = function_end_after(self.binary(), &est.program.entries, lo);
            let hi = region_machine_extent(self.binary(), lo, hi, fn_end);
            let Some(entry_pc) = f.block(c.header).start_pc else {
                continue;
            };
            if entry_pc < lo || entry_pc > hi {
                continue;
            }
            let accel = match KernelAccel::compile(
                f,
                &est.counts[c.func_index],
                &k.synth.schedule,
                c.header,
                self.binary(),
                &est.program.live_ins[c.func_index],
            ) {
                Ok(a) => Some(a),
                Err(
                    e @ (AccelBuildError::UnmappableLiveIn { .. } | AccelBuildError::Unexecutable),
                ) => {
                    diagnostics.push(Diagnostic::new(
                        FlowStage::AccelBuild,
                        &*c.name,
                        e.to_string(),
                    ));
                    None
                }
            };
            p.mapped[ki] = accel.is_some();
            p.specs.push(RegionSpec {
                name: c.name.to_string(),
                lo,
                hi,
                entry_pc,
            });
            p.set.kernels.push(accel);
            p.spec_kernel.push(ki);
        }
        p
    }

    /// The verification/measurement stage: co-simulates the partition the
    /// `evaluate` stage selects under `options`, executing each kernel's
    /// scheduled FSMD against shared memory and differencing it per
    /// invocation against the software oracle. Uncached (each call runs
    /// the hybrid machine afresh); the expensive inputs — profile, CDFG,
    /// candidates, synthesis — come from the cached stage artifacts.
    ///
    /// Under an instrumented flow this emits a `cosimulate` span
    /// (inclusive of the nested stage spans) split by the `accel_compile`,
    /// `hybrid_run` and `hwprofile_build` sub-spans, hybrid-machine counters
    /// (trap entries, store-differential events), and a `diagnostic`
    /// event for every degradation record first observed here
    /// (accelerator packaging rejections, store divergences).
    ///
    /// # Errors
    ///
    /// Propagates stage-1/-2 failures and software-simulation errors from
    /// the hybrid run.
    pub fn cosimulate(&self, options: &FlowOptions) -> Result<CosimReport, FlowError> {
        let _span = SpanGuard::enter(self.telemetry(), "cosimulate", String::new);
        let est = self.estimate(options.decompile, options.sim)?;
        let staged = self.evaluate(options)?;
        let reference = self.profile(options.sim)?;
        let mut diagnostics = est.program.diagnostics.clone();
        diagnostics.extend(staged.partition.diagnostics.iter().cloned());
        // Everything up to here was already emitted by the `evaluate`
        // stage; only records added below are new to this stage.
        let upstream_diagnostics = diagnostics.len();

        let Packaged {
            specs,
            mut set,
            spec_kernel,
            mapped,
        } = self.package(&est, &staged.partition, &mut diagnostics);
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();

        // Run the hybrid machine.
        let mut hm = HybridMachine::new(self.binary(), options.sim, specs)
            .map_err(|e| FlowError::Cosim(CosimError::Hybrid(e)))?;
        // Differential gating: the default `NullTelemetry` flow takes the
        // exact uninstrumented path (the throughput snapshot measures it);
        // an instrumented flow swaps in the recording accelerator, whose
        // execution semantics are identical.
        let mut recorders: Vec<Option<HwRecorder>> = if T::ENABLED {
            set.kernels
                .iter()
                .map(|k| k.as_ref().map(|_| HwRecorder::default()))
                .collect()
        } else {
            Vec::new()
        };
        let hx = {
            let _span = SpanGuard::enter(self.telemetry(), "hybrid_run", String::new);
            if T::ENABLED {
                hm.run(&mut InstrumentedAccel {
                    set: &set,
                    recorders: &mut recorders,
                    names: &names,
                    span_budget: vec![HW_SPAN_CAP; set.kernels.len()],
                    shadow_span: false,
                    tel: self.telemetry(),
                })
            } else {
                hm.run(&mut set)
            }
        }
        .map_err(|e| FlowError::Cosim(CosimError::Hybrid(e)))?;
        // The VCD stays unrendered: `HwProfile::vcd` renders it on demand.
        let hw_profiles: Vec<Option<HwProfile>> = {
            let _span = SpanGuard::enter(self.telemetry(), "hwprofile_build", String::new);
            recorders
                .into_iter()
                .zip(&set.kernels)
                .map(|(rec, accel)| Some(rec?.into_profile(accel.as_ref()?.fsmd())))
                .collect()
        };

        // Assemble per-kernel results (kernels without a region spec are
        // unmapped with zero traps).
        let mut kernels: Vec<KernelCosim> = staged
            .partition
            .selected()
            .enumerate()
            .map(|(ki, (k, c))| KernelCosim {
                name: Arc::clone(&c.name),
                mapped: mapped[ki],
                invocations: 0,
                invocations_estimated: c.invocations,
                hw_invocations: 0,
                not_executed: 0,
                hw_cycles_measured: 0,
                hw_cycles_estimated: k.synth.timing.hw_cycles,
                sw_cycles_replaced: 0,
                sw_cycles_estimated: c.sw_cycles,
                store_mismatches: 0,
                error_pct: None,
                hw_profile: None,
            })
            .collect();
        for (ri, stats) in hx.kernels.iter().enumerate() {
            let kc = &mut kernels[spec_kernel[ri]];
            kc.invocations = stats.invocations;
            kc.hw_invocations = stats.hw_invocations;
            kc.not_executed = stats.declined + stats.faulted;
            kc.hw_cycles_measured = stats.hw_cycles;
            kc.sw_cycles_replaced = stats.sw_cycles_replaced;
            kc.store_mismatches = stats.store_mismatches;
            if stats.hw_invocations > 0 && kc.hw_cycles_estimated > 0 {
                kc.error_pct = Some(
                    100.0 * (stats.hw_cycles as f64 - kc.hw_cycles_estimated as f64)
                        / kc.hw_cycles_estimated as f64,
                );
            }
            if stats.store_mismatches > 0 {
                let detail = match stats.divergences.first() {
                    Some(d) => format!(
                        "{} invocation(s) diverged from the software oracle (first: {d})",
                        stats.store_mismatches
                    ),
                    None => format!(
                        "{} invocation(s) diverged from the software oracle",
                        stats.store_mismatches
                    ),
                };
                diagnostics.push(Diagnostic::new(FlowStage::Cosim, &*kc.name, detail));
            }
        }
        // Attach hardware profiles (instrumented flow only), charging each
        // kernel's one-time BRAM migration transfer.
        for (ri, p) in hw_profiles.into_iter().enumerate() {
            let Some(mut p) = p else { continue };
            let ki = spec_kernel[ri];
            let k = &staged.partition.kernels[ki];
            p.bram_transfer_words = if k.mem_in_bram { k.bram_bytes / 4 } else { 0 };
            kernels[ki].hw_profile = Some(p);
        }

        // Measured hybrid evaluation: the kernels that actually executed,
        // with measured cycles/invocations and the block-RAM transfer
        // charge.
        let measured_kernels = staged
            .partition
            .kernels
            .iter()
            .zip(&kernels)
            .filter(|(_, kc)| kc.hw_invocations > 0)
            .map(|(k, kc)| HardwareKernel {
                invocations: kc.hw_invocations,
                hw_cycles: kc.hw_cycles_measured,
                clock_hz: k.synth.timing.clock_mhz * 1e6,
                sw_cycles_replaced: kc.sw_cycles_replaced,
                area_gates: k.synth.area.gate_equivalents,
                bram_transfer_words: if k.mem_in_bram { k.bram_bytes / 4 } else { 0 },
            });
        let measured = options.platform.hybrid(reference.cycles, measured_kernels);

        if T::ENABLED {
            let traps: u64 = hx.kernels.iter().map(|s| s.invocations).sum();
            let mismatches: u64 = hx.kernels.iter().map(|s| s.store_mismatches).sum();
            self.telemetry()
                .counter_add(Counter::HybridTrapEntries, traps);
            self.telemetry()
                .counter_add(Counter::HybridStoreMismatches, mismatches);
            let mut hw = (0u64, 0u64, 0u64, 0u64, 0u64);
            for p in kernels.iter().filter_map(|k| k.hw_profile.as_ref()) {
                hw.0 += p.invocations;
                hw.1 += p.bus_reads;
                hw.2 += p.bus_writes;
                hw.3 += p.attributed.bus_stall;
                hw.4 += p.attributed.fill_drain;
            }
            self.telemetry().counter_add(Counter::HwInvocations, hw.0);
            self.telemetry().counter_add(Counter::HwBusReads, hw.1);
            self.telemetry().counter_add(Counter::HwBusWrites, hw.2);
            self.telemetry().counter_add(Counter::HwStallCycles, hw.3);
            self.telemetry().counter_add(Counter::HwFillCycles, hw.4);
            crate::stage::emit_diagnostics(self.telemetry(), &diagnostics[upstream_diagnostics..]);
        }

        let exit_bit_identical = hx.exit.regs == reference.regs
            && hx.exit.reason == reference.reason
            && hx.exit.cycles == reference.cycles
            && hx.exit.instrs == reference.instrs;
        let unmapped_kernels = mapped.iter().filter(|&&m| !m).count();
        Ok(CosimReport {
            sw_cycles: reference.cycles,
            exit_bit_identical,
            hybrid_exit: hx.exit,
            kernels,
            unmapped_kernels,
            measured,
            estimated: staged.hybrid,
            diagnostics,
        })
    }
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
    fn cosim_is_bit_identical_and_executes_hardware() {
        for level in OptLevel::ALL {
            let binary = compile(kernel_program(), level).unwrap();
            let staged = StagedFlow::new(&binary);
            let report = staged.cosimulate(&FlowOptions::default()).unwrap();
            assert!(
                report.exit_bit_identical,
                "{level}: hybrid exit diverged from software"
            );
            assert_eq!(report.store_mismatches(), 0, "{level}: hw stores diverged");
            assert!(
                report.hw_invocations() > 0,
                "{level}: no kernel executed in hardware ({:?})",
                report
                    .kernels
                    .iter()
                    .map(|k| (k.name.clone(), k.mapped, k.invocations))
                    .collect::<Vec<_>>()
            );
            let err = report.mean_abs_error_pct().expect("kernels executed");
            assert!(err.is_finite());
        }
    }

    /// Golden Chrome-trace shape on a fixed small benchmark: the export
    /// parses as JSON, the per-stage spans appear in their deterministic
    /// first-enter order, and the cache counter tracks are present.
    #[test]
    fn chrome_trace_golden_shape_for_one_cosim_run() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let rec = binpart_telemetry::Recorder::new();
        let staged = StagedFlow::with_telemetry(&binary, &rec);
        let report = staged.cosimulate(&FlowOptions::default()).unwrap();
        assert!(report.exit_bit_identical);
        let json = rec
            .chrome_trace()
            .expect("balanced spans after a clean run");
        binpart_telemetry::validate_json(&json).unwrap_or_else(|e| panic!("{e}"));
        // Span "X" events are emitted in enter order; a single-threaded
        // cosimulate enters cosimulate → profile → decompile → estimate
        // → evaluate (the estimate span opens after its inputs build),
        // then its own sub-spans.
        let order: Vec<usize> = [
            "cosimulate",
            "profile",
            "decompile",
            "estimate",
            "evaluate",
            "accel_compile",
            "hybrid_run",
            "hwprofile_build",
        ]
        .iter()
        .map(|n| {
            json.find(&format!("\"name\":\"{n}\""))
                .unwrap_or_else(|| panic!("span {n} missing from trace\n{json}"))
        })
        .collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "span order {order:?}\n{json}"
        );
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(
            json.contains("\"ph\":\"C\""),
            "counter tracks missing\n{json}"
        );
        assert!(json.contains("estimate_cache_miss"), "{json}");
        assert!(json.contains("hybrid_trap_entries"), "{json}");
        // Hardware spans share the timeline with the software stages, and
        // each spanned invocation's software shadow follows it.
        let hw = json.find("\"name\":\"hw_invoke\"");
        let sw = json.find("\"name\":\"sw_shadow\"");
        assert!(hw.is_some() && sw.is_some(), "{json}");
        assert!(hw < sw, "sw_shadow before hw_invoke\n{json}");
        assert!(json.contains("hw_invocations"), "{json}");
    }

    #[test]
    fn instrumented_cosim_attaches_conserving_hw_profiles() {
        let binary = compile(kernel_program(), OptLevel::O2).unwrap();
        let rec = binpart_telemetry::Recorder::new();
        let staged = StagedFlow::with_telemetry(&binary, &rec);
        let report = staged.cosimulate(&FlowOptions::default()).unwrap();
        assert!(
            report.exit_bit_identical,
            "instrumentation must not perturb"
        );
        let mut executed = 0;
        for k in &report.kernels {
            if k.hw_invocations == 0 {
                continue;
            }
            let p = k
                .hw_profile
                .as_ref()
                .expect("executed kernel has a profile");
            executed += 1;
            // Attribution conservation: per-category and per-state sums
            // both equal the measured hardware cycles, exactly.
            assert_eq!(p.attributed.total(), k.hw_cycles_measured, "{}", k.name);
            assert_eq!(p.measured_cycles, k.hw_cycles_measured, "{}", k.name);
            assert_eq!(
                p.state_cycles.iter().map(|&(_, c)| c).sum::<u64>(),
                k.hw_cycles_measured
            );
            assert_eq!(p.committed, k.hw_invocations);
            assert!(p.states_executed > 0 && p.states_executed <= p.states_total);
            assert_eq!(
                p.analytic.total().max(1),
                k.hw_cycles_estimated,
                "{}",
                k.name
            );
            assert!(p.vcd().is_some(), "first invocation captures a wave");
        }
        assert!(executed > 0, "no kernel executed");
        // The uninstrumented flow runs the identical hardware and attaches
        // no profiles.
        let plain = StagedFlow::new(&binary)
            .cosimulate(&FlowOptions::default())
            .unwrap();
        assert!(plain.kernels.iter().all(|k| k.hw_profile.is_none()));
        for (a, b) in plain.kernels.iter().zip(&report.kernels) {
            assert_eq!(a.hw_cycles_measured, b.hw_cycles_measured);
            assert_eq!(a.hw_invocations, b.hw_invocations);
            assert_eq!(a.store_mismatches, b.store_mismatches);
        }
    }

    /// A mapped kernel without a recorder falls back to the uninstrumented
    /// accelerator: the same hybrid run, no panic.
    #[test]
    fn instrumented_accel_without_recorders_runs_uninstrumented() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let staged = StagedFlow::new(&binary);
        let options = FlowOptions::default();
        let plain = staged.cosimulate(&options).unwrap();
        let est = staged.estimate(options.decompile, options.sim).unwrap();
        let eval = staged.evaluate(&options).unwrap();
        let p = staged.package(&est, &eval.partition, &mut Vec::new());
        let names: Vec<String> = p.specs.iter().map(|s| s.name.clone()).collect();
        let mut hm = HybridMachine::new(&binary, options.sim, p.specs).unwrap();
        let hx = hm
            .run(&mut InstrumentedAccel {
                set: &p.set,
                recorders: &mut [],
                names: &names,
                span_budget: vec![HW_SPAN_CAP; p.set.kernels.len()],
                shadow_span: false,
                tel: staged.telemetry(),
            })
            .unwrap();
        assert_eq!(hx.exit.regs, plain.hybrid_exit.regs);
        assert_eq!(hx.exit.cycles, plain.hybrid_exit.cycles);
        assert!(
            hx.kernels.iter().any(|s| s.hw_invocations > 0),
            "no kernel executed"
        );
        for (ri, s) in hx.kernels.iter().enumerate() {
            let k = &plain.kernels[p.spec_kernel[ri]];
            assert_eq!(s.hw_invocations, k.hw_invocations, "{}", k.name);
            assert_eq!(s.hw_cycles, k.hw_cycles_measured, "{}", k.name);
        }
    }

    #[test]
    fn measured_speedup_is_in_the_estimates_neighborhood() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let staged = StagedFlow::new(&binary);
        let report = staged.cosimulate(&FlowOptions::default()).unwrap();
        assert!(report.measured.app_speedup > 1.0, "{}", report.measured);
        // Measured and analytic agree on the order of magnitude; the gap
        // is exactly what this stage exists to quantify.
        let ratio = report.measured.app_speedup / report.estimated.app_speedup;
        assert!(
            (0.2..5.0).contains(&ratio),
            "measured {} vs estimated {}",
            report.measured.app_speedup,
            report.estimated.app_speedup
        );
    }

    #[test]
    fn empty_partition_cosimulates_to_a_pure_software_run() {
        let binary = compile(kernel_program(), OptLevel::O1).unwrap();
        let staged = StagedFlow::new(&binary);
        let mut options = FlowOptions::default();
        options.partition.area_budget_gates = 10;
        let report = staged.cosimulate(&options).unwrap();
        assert!(report.exit_bit_identical);
        assert!(report.kernels.is_empty());
        assert_eq!(report.hw_invocations(), 0);
        assert!((report.measured.app_speedup - 1.0).abs() < 1e-9);
    }
}
