//! Benchmark inputs: the 20 benchmarks × 4 `OptLevel`s compiled to MIPS
//! binaries (the "cells"), each with the `$v0` the independent reference
//! interpreter computes for it, plus the seeded cell order.

use binpart_core::flow::FlowOptions;
use binpart_minicc::OptLevel;
use binpart_mips::reference::ReferenceMachine;
use binpart_mips::{Binary, Reg};
use std::time::Instant;

/// One compiled (benchmark, level) pair. The pipeline only ever sees
/// `binary`; `expected_v0` is the correctness oracle.
pub struct Cell {
    pub name: String,
    pub binary: Binary,
    pub expected_v0: u32,
}

/// The flow options every workload uses: the shipped defaults with
/// jump-table recovery on, so all 80 cells partition.
pub fn options() -> FlowOptions {
    let mut o = FlowOptions::default();
    o.decompile.recover_jump_tables = true;
    o
}

/// Compiles every cell with `minicc` and runs the reference interpreter
/// on it, on the sweep's workers (`BINPART_THREADS`, one by default).
/// `keep` filters cells by name (all cells when `None`).
pub fn build(keep: Option<&dyn Fn(&str) -> bool>) -> Result<Vec<Cell>, String> {
    let sim = options().sim;
    let mut todo = Vec::new();
    for b in binpart_workloads::suite() {
        for level in OptLevel::ALL {
            let name = format!("{}{}", b.name, level.flag());
            if keep.is_none_or(|k| k(&name)) {
                todo.push((name, b.clone(), level));
            }
        }
    }
    if todo.is_empty() {
        return Err("no cells selected".into());
    }
    binpart_par::par_map(&todo, |(name, b, level)| {
        let binary = b.compile(*level).map_err(|e| format!("{name}: {e}"))?;
        let exit = ReferenceMachine::with_config(&binary, sim)
            .and_then(|mut m| m.run())
            .map_err(|e| format!("{name}: reference run failed: {e}"))?;
        Ok(Cell {
            name: name.clone(),
            binary,
            expected_v0: exit.reg(Reg::V0),
        })
    })
    .into_iter()
    .collect()
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// One timed [`build`]: the cells and the seconds it took.
pub fn setup(keep: Option<&dyn Fn(&str) -> bool>) -> Result<(Vec<Cell>, f64), String> {
    let t = Instant::now();
    let cells = build(keep)?;
    Ok((cells, t.elapsed().as_secs_f64()))
}

/// Repeats the set-up, checks that the reference interpreter agrees with
/// `cells` again, and returns the seconds the set-up took.
pub fn resetup(keep: Option<&dyn Fn(&str) -> bool>, cells: &[Cell]) -> Result<f64, String> {
    let (again, secs) = setup(keep)?;
    let same = again.len() == cells.len()
        && again
            .iter()
            .zip(cells)
            .all(|(a, b)| a.expected_v0 == b.expected_v0);
    if same {
        Ok(secs)
    } else {
        Err("set-up is not deterministic: the reference results changed".into())
    }
}

/// SplitMix64: the seeded source of cell order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A fresh Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}
