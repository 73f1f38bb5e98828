//! E1 (Table 1): wall-clock of the full decompile-partition-synthesize flow
//! per benchmark — the cost that motivates the paper's fast greedy
//! partitioner for dynamic-synthesis scenarios.

use binpart_core::flow::FlowOptions;
use binpart_core::stage::StagedFlow;
use binpart_minicc::OptLevel;
use binpart_workloads::suite;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_flow");
    group.sample_size(10);
    for b in suite().into_iter().filter(|b| !b.has_jump_table).take(4) {
        let binary = b.compile(OptLevel::O1).unwrap();
        group.bench_function(b.name, |bench| {
            bench.iter(|| {
                StagedFlow::new(std::hint::black_box(&binary))
                    .run(&FlowOptions::default())
                    .unwrap()
                    .hybrid
                    .app_speedup
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
