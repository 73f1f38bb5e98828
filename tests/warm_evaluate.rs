//! What a warm design point leaves in shared state.
//!
//! Once a [`StagedFlow`]'s synthesis memo holds every kernel a grid needs,
//! evaluating a point reads the memo through one view, counts its hits
//! locally and names each selected kernel's candidate by index. These
//! tests check both from outside: reports kept alive hold no reference to
//! a candidate's name, blocks or alias summary, and the memo's hit and
//! miss counters stay exact when points share it across threads. The
//! decompiled program itself is built once and shared by every later
//! stage, never copied.

mod common;

use binpart::core::flow::FlowOptions;
use binpart::core::partition::Candidate;
use binpart::core::stage::{StagedFlow, StagedReport};
use binpart::minicc::OptLevel;
use binpart::mips::Binary;
use common::design_grid;
use std::sync::Arc;

/// Cells with several candidates and kernels at most grid points.
const CELLS: [(&str, OptLevel); 3] = [
    ("aifirf01", OptLevel::O1),
    ("crc", OptLevel::O2),
    ("jpegdct", OptLevel::O3),
];

fn compile(name: &str, level: OptLevel) -> Binary {
    binpart::workloads::suite()
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("no benchmark {name}"))
        .compile(level)
        .expect("benchmark compiles")
}

/// Every point of the design grid, as options.
fn points() -> Vec<FlowOptions> {
    let grid = design_grid();
    grid.configs().iter().map(|c| grid.options_for(c)).collect()
}

/// The strong counts of a candidate's shared fields.
fn shared_counts(c: &Candidate) -> (usize, usize, usize) {
    (
        Arc::strong_count(&c.name),
        Arc::strong_count(&c.blocks),
        Arc::strong_count(&c.regions),
    )
}

#[test]
fn held_warm_reports_share_nothing_with_the_candidates() {
    let points = points();
    assert_eq!(points.len(), 2000);
    for (name, level) in CELLS {
        let binary = compile(name, level);
        let flow = StagedFlow::new(&binary);
        for p in &points {
            flow.evaluate(p).expect("cold point evaluates");
        }
        let est = flow
            .estimate(points[0].decompile, points[0].sim)
            .expect("stages are built");
        let candidates = &est.candidates.candidates;
        let before: Vec<_> = candidates.iter().map(shared_counts).collect();
        let reports: Vec<StagedReport> = points
            .iter()
            .map(|p| flow.evaluate(p).expect("warm point evaluates"))
            .collect();
        let kernels: usize = reports.iter().map(|r| r.partition.kernels.len()).sum();
        assert!(kernels > 0, "{name}{level:?}: no point selected a kernel");
        let after: Vec<_> = candidates.iter().map(shared_counts).collect();
        assert_eq!(
            before, after,
            "{name}{level:?}: {kernels} held kernels hold candidate data"
        );
    }
}

#[test]
fn later_stages_share_the_decompiled_program() {
    let options = FlowOptions::default();
    for (name, level) in CELLS {
        let binary = compile(name, level);
        let flow = StagedFlow::new(&binary);
        let program = flow.decompile(options.decompile).expect("decompiles");
        let est = flow
            .estimate(options.decompile, options.sim)
            .expect("stages are built");
        assert!(
            Arc::ptr_eq(&program, &est.program),
            "{name}{level:?}: the estimate stage holds a copy of the program"
        );
        assert_eq!(est.counts.len(), program.functions.len());
        let report = flow.run(&options).expect("flow runs");
        assert!(
            Arc::ptr_eq(&program, &report.program),
            "{name}{level:?}: the flow report holds a copy of the program"
        );
        assert_eq!(report.counts, est.counts);
    }
}

/// `(hits, misses)` of `flow`'s memo after evaluating `points` on
/// `threads` scoped threads (point `i` on thread `i % threads`), and the
/// decision records those points made.
fn replay(flow: &StagedFlow<'_>, points: &[FlowOptions], threads: usize) -> (u64, u64, usize) {
    let decisions: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    points
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|p| flow.evaluate(p).expect("point evaluates"))
                        .map(|r| r.partition.decisions.len())
                        .sum::<usize>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker finishes"))
            .sum()
    });
    let est = flow
        .estimate(points[0].decompile, points[0].sim)
        .expect("stages are built");
    (est.cache.hits(), est.cache.misses(), decisions)
}

#[test]
fn memo_counts_every_synthesis_attempt_exactly() {
    let points = points();
    for (name, level) in CELLS {
        let binary = compile(name, level);
        let at = format!("{name}{level:?}");
        // Cold, one thread: every attempt is a hit or the one miss that
        // built its entry.
        let flow = StagedFlow::new(&binary);
        let (hits, misses, decisions) = replay(&flow, &points, 1);
        let attempts = hits + misses;
        let est = flow
            .estimate(points[0].decompile, points[0].sim)
            .expect("stages are built");
        assert_eq!(misses, est.cache.len() as u64, "{at}: one miss per entry");
        // Each decision record is the outcome of one attempt; step 2's
        // failed attempts leave none.
        assert!(attempts >= decisions as u64, "{at}: {attempts} < {decisions}");
        // Warm, one thread: the same attempts, all hits.
        let (warm_hits, warm_misses, _) = replay(&flow, &points, 1);
        assert_eq!(warm_misses, misses, "{at}: a warm replay synthesized");
        assert_eq!(warm_hits - hits, attempts, "{at}: warm replay attempts");
        // Warm, four threads sharing the memo.
        let (par_hits, par_misses, _) = replay(&flow, &points, 4);
        assert_eq!(par_misses, misses, "{at}");
        assert_eq!(par_hits - warm_hits, attempts, "{at}: concurrent warm replay");
        // Cold, four threads: racing misses on one key build it once, and
        // the racers that waited count hits.
        let fresh = StagedFlow::new(&binary);
        let (cold_hits, cold_misses, _) = replay(&fresh, &points, 4);
        assert_eq!(cold_misses, misses, "{at}: concurrent cold misses");
        assert_eq!(cold_hits + cold_misses, attempts, "{at}: concurrent cold replay");
    }
}
