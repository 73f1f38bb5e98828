//! Microprocessor/FPGA platform models: clocks, power, communication, and
//! the hybrid runtime/energy accounting the paper's evaluation reports.
//!
//! The paper evaluates a *hypothetical* platform — a MIPS core at 40, 200,
//! or 400 MHz next to a Xilinx Virtex-II — precisely so that platform
//! parameters can be swept. This crate is that parameterization: given a
//! software cycle count and per-kernel hardware estimates, it produces the
//! execution-time and energy numbers of the evaluation tables.
//!
//! # Example
//!
//! ```
//! use binpart_platform::{Platform, HardwareKernel};
//!
//! let platform = Platform::mips_virtex2(200_000_000.0);
//! let kernel = HardwareKernel {
//!     invocations: 1_000,
//!     hw_cycles: 60_000,
//!     clock_hz: 60_000_000.0,
//!     sw_cycles_replaced: 9_000_000,
//!     area_gates: 20_000,
//!     bram_transfer_words: 0,
//! };
//! let report = platform.hybrid(10_000_000, [kernel]);
//! assert!(report.app_speedup > 1.0);
//! assert!(report.energy_savings > 0.0 && report.energy_savings < 1.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::Arc;

/// Microprocessor model.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorSpec {
    /// Display name (shared, so cloning a spec allocates nothing).
    pub name: Arc<str>,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Power while executing, in watts.
    pub active_power_w: f64,
    /// Power while idling (waiting on the FPGA), in watts.
    pub idle_power_w: f64,
}

impl ProcessorSpec {
    /// A MIPS-class core at `clock_hz`, with affine power
    /// (`P = P_static + k·f`, anchored at 0.5 W / 200 MHz): leakage and I/O
    /// dominate at low clocks, which is what makes slow platforms benefit
    /// most from partitioning, matching the paper's 40/200/400 MHz sweep.
    pub fn mips(clock_hz: f64) -> ProcessorSpec {
        let active = 0.15 + 1.75e-9 * clock_hz;
        ProcessorSpec {
            name: format!("MIPS @ {} MHz", clock_hz / 1e6).into(),
            clock_hz,
            active_power_w: active,
            idle_power_w: active * 0.65,
        }
    }
}

/// FPGA model (capacity + power coefficients).
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaSpec {
    /// Display name (shared, so cloning a spec allocates nothing).
    pub name: Arc<str>,
    /// Usable capacity in gate equivalents.
    pub capacity_gates: u64,
    /// On-chip block-RAM capacity in bits.
    pub bram_bits: u64,
    /// Static power in watts.
    pub static_power_w: f64,
    /// Dynamic power coefficient: watts per (gate × MHz).
    pub dynamic_w_per_gate_mhz: f64,
}

impl FpgaSpec {
    /// A Xilinx Virtex-II–class device (XC2V250-ish usable region).
    pub fn virtex2() -> FpgaSpec {
        FpgaSpec {
            name: "Xilinx Virtex-II".into(),
            capacity_gates: 250_000,
            bram_bits: 48 * 18 * 1024,
            static_power_w: 0.12,
            dynamic_w_per_gate_mhz: 1.6e-6,
        }
    }

    /// Dynamic power of a design of `gates` at `clock_hz` with `activity`
    /// (0..1) switching activity.
    pub fn dynamic_power_w(&self, gates: u64, clock_hz: f64, activity: f64) -> f64 {
        self.dynamic_w_per_gate_mhz * gates as f64 * (clock_hz / 1e6) * activity
    }
}

/// CPU⇄FPGA communication model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    /// CPU cycles to start the accelerator and synchronize completion.
    pub invocation_overhead_cycles: u64,
    /// CPU cycles to move one 32-bit word between main memory and on-FPGA
    /// block RAM (the partitioning step-2 array migration). Charged per
    /// [`HardwareKernel::bram_transfer_words`]; kernels that leave their
    /// arrays in main memory report zero words and pay nothing.
    pub transfer_cycles_per_word: u64,
}

impl Default for CommModel {
    fn default() -> Self {
        CommModel {
            invocation_overhead_cycles: 40,
            transfer_cycles_per_word: 2,
        }
    }
}

/// A complete platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// The processor.
    pub cpu: ProcessorSpec,
    /// The FPGA.
    pub fpga: FpgaSpec,
    /// Communication costs.
    pub comm: CommModel,
}

impl Platform {
    /// The paper's hypothetical MIPS + Virtex-II platform at `clock_hz`.
    pub fn mips_virtex2(clock_hz: f64) -> Platform {
        Platform {
            cpu: ProcessorSpec::mips(clock_hz),
            fpga: FpgaSpec::virtex2(),
            comm: CommModel::default(),
        }
    }

    /// Computes the hybrid execution-time/energy report.
    ///
    /// `sw_total_cycles` is the profiled all-software cycle count; each
    /// [`HardwareKernel`] describes one region moved to the FPGA. Kernels
    /// are taken by value from any iterator, so a caller deriving them
    /// from its own records need not collect them first.
    pub fn hybrid(
        &self,
        sw_total_cycles: u64,
        kernels: impl IntoIterator<Item = HardwareKernel>,
    ) -> HybridReport {
        let kernels = kernels.into_iter();
        let f_cpu = self.cpu.clock_hz;
        let sw_time = sw_total_cycles as f64 / f_cpu;
        let mut replaced: u64 = 0;
        let mut hw_time = 0.0f64;
        let mut comm_cycles: u64 = 0;
        let mut area: u64 = 0;
        let mut kernel_reports = Vec::with_capacity(kernels.size_hint().0);
        let mut fpga_dyn_energy = 0.0;
        for k in kernels {
            replaced += k.sw_cycles_replaced;
            let t_hw = k.hw_cycles as f64 / k.clock_hz;
            hw_time += t_hw;
            comm_cycles += k.invocations * self.comm.invocation_overhead_cycles
                + k.bram_transfer_words * self.comm.transfer_cycles_per_word;
            area += k.area_gates;
            fpga_dyn_energy += self.fpga.dynamic_power_w(k.area_gates, k.clock_hz, 0.25) * t_hw;
            let t_sw_kernel = k.sw_cycles_replaced as f64 / f_cpu;
            kernel_reports.push(KernelReport {
                kernel_speedup: if t_hw > 0.0 { t_sw_kernel / t_hw } else { 1.0 },
                hw_time_s: t_hw,
                sw_time_s: t_sw_kernel,
                area_gates: k.area_gates,
                clock_mhz: k.clock_hz / 1e6,
            });
        }
        let replaced = replaced.min(sw_total_cycles);
        let cpu_cycles_remaining = sw_total_cycles - replaced + comm_cycles;
        let cpu_time = cpu_cycles_remaining as f64 / f_cpu;
        let hybrid_time = cpu_time + hw_time;
        let app_speedup = if hybrid_time > 0.0 {
            sw_time / hybrid_time
        } else {
            1.0
        };
        // Energy.
        let sw_energy = self.cpu.active_power_w * sw_time + self.fpga.static_power_w * 0.0;
        let hybrid_energy = self.cpu.active_power_w * cpu_time
            + self.cpu.idle_power_w * hw_time
            + self.fpga.static_power_w * hybrid_time
            + fpga_dyn_energy;
        let energy_savings = if sw_energy > 0.0 {
            1.0 - hybrid_energy / sw_energy
        } else {
            0.0
        };
        HybridReport {
            sw_time_s: sw_time,
            hybrid_time_s: hybrid_time,
            app_speedup,
            sw_energy_j: sw_energy,
            hybrid_energy_j: hybrid_energy,
            energy_savings,
            total_area_gates: area,
            kernels: kernel_reports,
        }
    }
}

/// One region implemented in hardware. Unnamed: the caller knows which
/// region each one is (a partition lists its kernels in the order it
/// passes them).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareKernel {
    /// Number of CPU→FPGA invocations.
    pub invocations: u64,
    /// Total FPGA cycles across all invocations.
    pub hw_cycles: u64,
    /// Achieved FPGA clock for this kernel, Hz.
    pub clock_hz: f64,
    /// Profiled CPU cycles this kernel replaces.
    pub sw_cycles_replaced: u64,
    /// Kernel area in gate equivalents.
    pub area_gates: u64,
    /// 32-bit words moved between main memory and block RAM (one-time
    /// array migration; zero when arrays stay in main memory).
    pub bram_transfer_words: u64,
}

/// Per-kernel slice of a [`HybridReport`], for the [`HardwareKernel`] at
/// the same position among those passed to [`Platform::hybrid`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Software-time / hardware-time for this kernel alone.
    pub kernel_speedup: f64,
    /// Hardware execution time (s).
    pub hw_time_s: f64,
    /// Replaced software time (s).
    pub sw_time_s: f64,
    /// Area in gate equivalents.
    pub area_gates: u64,
    /// Achieved clock (MHz).
    pub clock_mhz: f64,
}

/// Hybrid execution-time and energy result.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridReport {
    /// All-software execution time (s).
    pub sw_time_s: f64,
    /// Partitioned execution time (s).
    pub hybrid_time_s: f64,
    /// Application speedup (sw/hybrid).
    pub app_speedup: f64,
    /// All-software energy (J).
    pub sw_energy_j: f64,
    /// Partitioned energy (J).
    pub hybrid_energy_j: f64,
    /// `1 - hybrid/sw` energy fraction saved.
    pub energy_savings: f64,
    /// Sum of kernel areas (gate equivalents).
    pub total_area_gates: u64,
    /// Per-kernel details, in the order of the kernels passed to
    /// [`Platform::hybrid`].
    pub kernels: Vec<KernelReport>,
}

impl HybridReport {
    /// Mean kernel speedup across kernels (1.0 when none).
    pub fn mean_kernel_speedup(&self) -> f64 {
        if self.kernels.is_empty() {
            return 1.0;
        }
        self.kernels.iter().map(|k| k.kernel_speedup).sum::<f64>() / self.kernels.len() as f64
    }
}

impl fmt::Display for HybridReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "speedup {:.2}x, energy savings {:.0}%, area {} gates",
            self.app_speedup,
            self.energy_savings * 100.0,
            self.total_area_gates
        )
    }
}

/// Geometric-mean helper used by the table harness.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for x in xs {
        if x > 0.0 {
            log_sum += x.ln();
            n += 1;
        }
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(replaced: u64, hw_cycles: u64) -> HardwareKernel {
        HardwareKernel {
            invocations: 100,
            hw_cycles,
            clock_hz: 50e6,
            sw_cycles_replaced: replaced,
            area_gates: 20_000,
            bram_transfer_words: 0,
        }
    }

    #[test]
    fn bram_transfer_words_cost_cpu_cycles() {
        let p = Platform::mips_virtex2(200e6);
        let base = p.hybrid(1_000_000, [kernel(900_000, 10_000)]);
        let mut with_transfer = kernel(900_000, 10_000);
        with_transfer.bram_transfer_words = 100_000;
        let heavy = p.hybrid(1_000_000, [with_transfer]);
        assert!(heavy.app_speedup < base.app_speedup);
    }

    #[test]
    fn no_kernels_means_no_speedup() {
        let p = Platform::mips_virtex2(200e6);
        let r = p.hybrid(1_000_000, []);
        assert!((r.app_speedup - 1.0).abs() < 1e-9);
        assert!(r.energy_savings <= 0.0 + 1e-9);
    }

    #[test]
    fn amdahl_limits_app_speedup() {
        let p = Platform::mips_virtex2(200e6);
        // 90% of time in the kernel, hardware "free":
        let r = p.hybrid(1_000_000, [kernel(900_000, 1)]);
        assert!(r.app_speedup < 10.0 + 1e-6, "bounded by Amdahl");
        assert!(r.app_speedup > 5.0, "but substantial: {}", r.app_speedup);
    }

    #[test]
    fn kernel_speedup_exceeds_app_speedup() {
        let p = Platform::mips_virtex2(200e6);
        let r = p.hybrid(1_000_000, [kernel(900_000, 2_000)]);
        assert!(r.mean_kernel_speedup() > r.app_speedup);
    }

    #[test]
    fn slower_cpu_gets_bigger_speedup_and_savings() {
        // The paper's platform sweep shape: 40 MHz > 200 MHz > 400 MHz.
        let mk = |hz: f64| {
            let p = Platform::mips_virtex2(hz);
            // same program: cycle counts identical across clocks
            p.hybrid(10_000_000, [kernel(9_000_000, 150_000)])
        };
        let r40 = mk(40e6);
        let r200 = mk(200e6);
        let r400 = mk(400e6);
        assert!(r40.app_speedup > r200.app_speedup);
        assert!(r200.app_speedup > r400.app_speedup);
        assert!(
            r40.energy_savings > r200.energy_savings && r200.energy_savings > r400.energy_savings,
            "{} {} {}",
            r40.energy_savings,
            r200.energy_savings,
            r400.energy_savings
        );
    }

    #[test]
    fn energy_model_is_consistent() {
        let p = Platform::mips_virtex2(200e6);
        let r = p.hybrid(10_000_000, [kernel(9_000_000, 150_000)]);
        assert!(r.hybrid_energy_j > 0.0);
        assert!(r.sw_energy_j > r.hybrid_energy_j);
        assert!(r.energy_savings > 0.3 && r.energy_savings < 0.95);
    }

    #[test]
    fn comm_overhead_reduces_speedup() {
        let mut p = Platform::mips_virtex2(200e6);
        let base = p.hybrid(1_000_000, [kernel(900_000, 10_000)]);
        p.comm.invocation_overhead_cycles = 5_000;
        let heavy = p.hybrid(1_000_000, [kernel(900_000, 10_000)]);
        assert!(heavy.app_speedup < base.app_speedup);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean([]), 0.0);
    }

    #[test]
    fn processor_power_has_static_floor() {
        let a = ProcessorSpec::mips(40e6);
        let b = ProcessorSpec::mips(400e6);
        // affine: 10x clock is far less than 10x power
        assert!(b.active_power_w / a.active_power_w < 5.0);
        assert!(b.active_power_w > a.active_power_w);
        assert!(a.active_power_w > 0.15);
    }
}
