//! A2: synthesis quality with and without the decompiler optimizations
//! (measured here as flow runtime; quality numbers come from `tables a2`).

use binpart_core::flow::FlowOptions;
use binpart_core::stage::StagedFlow;
use binpart_core::DecompileOptions;
use binpart_minicc::OptLevel;
use binpart_workloads::suite;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_ablation");
    group.sample_size(10);
    let b = suite().into_iter().find(|b| b.name == "autcor00").unwrap();
    let binary = b.compile(OptLevel::O2).unwrap();
    for (label, optimize) in [("passes_on", true), ("passes_off", false)] {
        group.bench_function(label, |bench| {
            bench.iter(|| {
                let options = FlowOptions {
                    decompile: DecompileOptions {
                        recover_jump_tables: true,
                        optimize,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                StagedFlow::new(std::hint::black_box(&binary))
                    .run(&options)
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
