//! Golden for the decompiler's output: per (benchmark, OptLevel) cell, every
//! pass and structure counter plus one FNV-1a digest over each recovered
//! function — its printed CDFG, value widths, parameters, live-ins and loop
//! forest. Any change to what a pass rewrites, counts or keeps shows up as a
//! diff against `tests/golden/decompile.txt`.
//!
//! Re-pin an intended change with
//! `BINPART_PIN_GOLDEN=1 cargo test --test decompile_golden`.

use binpart::core::{decompile, DecompileOptions};
use binpart::minicc::OptLevel;
use binpart::workloads::suite;

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per cell: `benchmark level functions=.. blocks=.. <passes>
/// <structure> fnv1a=H`.
fn decompile_lines() -> String {
    let options = DecompileOptions {
        // Jump-table recovery on, so all 20 benchmarks decompile.
        recover_jump_tables: true,
        ..Default::default()
    };
    let mut text = String::new();
    for b in suite() {
        for level in OptLevel::ALL {
            let binary = b.compile(level).unwrap();
            let prog = decompile(&binary, options)
                .unwrap_or_else(|e| panic!("{} {level}: decompile failed: {e}", b.name));
            let mut h = 0xcbf2_9ce4_8422_2325;
            for (i, f) in prog.functions.iter().enumerate() {
                let text = format!(
                    "{f}\n{:?}\n{:?}\n{:?}\n{:?}\n",
                    f.vreg_bits, f.params, prog.live_ins[i], prog.forests[i]
                );
                h = fnv1a(h, text.as_bytes());
            }
            let s = prog.stats;
            let (p, st) = (s.passes, s.structure);
            text.push_str(&format!(
                "{} {level} functions={} blocks={} moves_removed={} consts_folded={} \
                 dead_removed={} stack_slots_promoted={} stack_ops_removed={} \
                 values_narrowed={} muls_promoted={} loops_rerolled={} \
                 s.blocks={} ifs={} if_elses={} whiles={} do_whiles={} self_loops={} \
                 switches={} unstructured={} fnv1a={h:016x}\n",
                b.name,
                s.functions,
                s.blocks,
                p.moves_removed,
                p.consts_folded,
                p.dead_removed,
                p.stack_slots_promoted,
                p.stack_ops_removed,
                p.values_narrowed,
                p.muls_promoted,
                p.loops_rerolled,
                st.blocks,
                st.ifs,
                st.if_elses,
                st.whiles,
                st.do_whiles,
                st.self_loops,
                st.switches,
                st.unstructured,
            ));
        }
    }
    text
}

#[test]
fn decompile_matches_golden() {
    let text = decompile_lines();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/decompile.txt");
    if std::env::var_os("BINPART_PIN_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    assert_eq!(
        text, golden,
        "decompiler output drifted from tests/golden/decompile.txt; if the \
         change is intended, re-pin with BINPART_PIN_GOLDEN=1 cargo test \
         --test decompile_golden"
    );
}
