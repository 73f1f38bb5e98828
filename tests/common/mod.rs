//! Inputs shared by the design-sweep test binaries.

use binpart::core::flow::FlowOptions;
use binpart::explore::Sweep;

/// The design grid's 10 processor clocks (Hz).
pub fn design_clocks() -> impl Iterator<Item = f64> {
    (0..10).map(|i| 40e6 + 40e6 * f64::from(i))
}

/// A design-space grid of 10 clocks × 20 area budgets × 10 coverage
/// targets (2000 points) over the shipped options with jump-table
/// recovery on, so every benchmark partitions.
pub fn design_grid() -> Sweep {
    let mut base = FlowOptions::default();
    base.decompile.recover_jump_tables = true;
    let clocks = design_clocks();
    let budgets = (0..20).map(|i| (2_000.0 * 1.35f64.powi(i)).round() as u64);
    let coverage = (0..10).map(|i| 0.5 + 0.05 * f64::from(i));
    Sweep::with_base(base)
        .clocks(clocks)
        .area_budgets(budgets)
        .axis("coverage", coverage, |o, v| o.partition.coverage = v)
}
