//! Allocation budget of a warm design point.
//!
//! Once a [`StagedFlow`]'s stages are built and its synthesis memo holds
//! every kernel a grid needs, evaluating a point should allocate little
//! beyond the report it returns: a selected kernel names its candidate by
//! index, the rankings are fixed at harvest, and the per-point options
//! clone only `Arc`s. Nor should the grid itself allocate per point. This
//! binary counts allocations with its own global allocator, per thread, so
//! the harness's other threads never add to a test's count.

mod common;

use binpart::core::flow::FlowOptions;
use binpart::core::stage::StagedFlow;
use binpart::explore::Sweep;
use binpart::minicc::OptLevel;
use binpart::mips::Binary;
use common::design_grid;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and reallocations made by
/// the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; it is not measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the current thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn warm_design_points_allocate_little() {
    let grid = design_grid();
    let configs = grid.configs();

    let ((), option_allocs) = allocations(|| {
        for c in &configs {
            std::hint::black_box(grid.options_for(c));
        }
    });
    assert_eq!(option_allocs, 0, "options_for allocated");
    let points: Vec<FlowOptions> = configs.iter().map(|c| grid.options_for(c)).collect();

    let binaries: Vec<Binary> = binpart::workloads::suite()
        .iter()
        .flat_map(|b| OptLevel::ALL.map(|level| b.compile(level).expect("benchmark compiles")))
        .collect();
    assert_eq!(binaries.len(), 80);

    let mut evaluations = 0u64;
    let mut total = 0u64;
    for binary in &binaries {
        let flow = StagedFlow::new(binary);
        // Warm every stage and the synthesis memo, untimed and uncounted.
        for p in &points {
            flow.evaluate(p).expect("cold point evaluates");
        }
        let (_, n) = allocations(|| {
            for p in &points {
                let report = flow.evaluate(p).expect("warm point evaluates");
                std::hint::black_box(report);
            }
        });
        total += n;
        evaluations += points.len() as u64;
    }
    let per_point = total as f64 / evaluations as f64;
    println!("warm evaluate: {per_point:.2} allocations per point over {evaluations} points");
    assert!(
        per_point <= 5.0,
        "a warm evaluate made {per_point:.2} allocations per point (budget 5)"
    );
}

#[test]
fn grid_size_is_the_axis_product_and_allocates_nothing() {
    let with_coverage = design_grid();
    let grids = [
        ("no custom axis", Sweep::new().clocks([100e6, 200e6, 400e6]).area_budgets([10_000, 90_000])),
        ("one custom axis", with_coverage.clone()),
        (
            "two custom axes",
            with_coverage.axis("max_kernels", [1.0, 4.0, 8.0], |o, v| {
                o.partition.max_kernels = v as usize;
            }),
        ),
    ];
    for (what, grid) in &grids {
        let (len, allocs) = allocations(|| grid.len());
        assert_eq!(allocs, 0, "{what}: len() allocated");
        assert_eq!(len, grid.configs().len(), "{what}");
    }
    assert_eq!(grids.map(|(_, g)| g.len()), [6, 2000, 6000]);
}
