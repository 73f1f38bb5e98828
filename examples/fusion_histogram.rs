//! Dynamic adjacent-pair histogram over the benchmark suite: which
//! instruction pairs dominate execution at each optimization level, i.e.
//! where superinstruction fusion candidates live. This is the measurement
//! behind the fusion pattern table in `binpart_mips::sim`. The simulator
//! fuses only inside installed superblocks, which retire ~98% of the
//! suite's dynamic instructions, so the whole-run histogram is close to
//! what the traces see.
//!
//! Run with: `cargo run --release --example fusion_histogram [-O0|-O1|-O2|-O3]
//! [--superblocks] [--trace-out FILE]`
//!
//! `--superblocks` switches to the trace-cache view: every benchmark runs
//! on the superblock engine (the simulator's default, which the flow
//! profiles with) and the hottest recorded traces are printed — entry pc, shape (segments / text slots / dense dispatches
//! per pass), pass and side-exit counts, and the empirical hold rate (the
//! branch bias the trace was recorded on). This is the measurement behind
//! the superblock engine's heat threshold and segment caps.
//!
//! `--trace-out FILE` writes the run's telemetry as Chrome-trace JSON:
//! one span per benchmark, plus (in `--superblocks` mode) the trace-cache
//! counter tracks. Load it in `chrome://tracing` or Perfetto.

use binpart::minicc::OptLevel;
use binpart::mips::sim::Machine;
use binpart::mips::Instr;
use binpart::telemetry::{Counter, Recorder, SpanGuard, Telemetry};
use binpart::workloads::suite;
use std::collections::HashMap;

fn mnemonic(i: Instr) -> &'static str {
    use Instr::*;
    match i {
        Add { .. } | Addu { .. } => "addu",
        Sub { .. } | Subu { .. } => "subu",
        And { .. } => "and",
        Or { .. } => "or",
        Xor { .. } => "xor",
        Nor { .. } => "nor",
        Slt { .. } => "slt",
        Sltu { .. } => "sltu",
        Sll { .. } => "sll",
        Srl { .. } => "srl",
        Sra { .. } => "sra",
        Sllv { .. } => "sllv",
        Srlv { .. } => "srlv",
        Srav { .. } => "srav",
        Mult { .. } => "mult",
        Multu { .. } => "multu",
        Div { .. } => "div",
        Divu { .. } => "divu",
        Mfhi { .. } => "mfhi",
        Mflo { .. } => "mflo",
        Mthi { .. } => "mthi",
        Mtlo { .. } => "mtlo",
        Addi { .. } | Addiu { .. } => "addiu",
        Slti { .. } => "slti",
        Sltiu { .. } => "sltiu",
        Andi { .. } => "andi",
        Ori { .. } => "ori",
        Xori { .. } => "xori",
        Lui { .. } => "lui",
        Lb { .. } => "lb",
        Lbu { .. } => "lbu",
        Lh { .. } => "lh",
        Lhu { .. } => "lhu",
        Lw { .. } => "lw",
        Sb { .. } => "sb",
        Sh { .. } => "sh",
        Sw { .. } => "sw",
        Beq { .. } => "beq",
        Bne { .. } => "bne",
        Blez { .. } => "blez",
        Bgtz { .. } => "bgtz",
        Bltz { .. } => "bltz",
        Bgez { .. } => "bgez",
        J { .. } => "j",
        Jal { .. } => "jal",
        Jr { .. } => "jr",
        Jalr { .. } => "jalr",
        Break { .. } => "break",
    }
}

/// `--superblocks` mode: run the suite on the default (superblock) engine
/// and print the hottest recorded traces per benchmark.
fn superblock_report(level: OptLevel, rec: &Recorder) -> Result<(), Box<dyn std::error::Error>> {
    println!("recorded superblocks at {} (hottest traces per benchmark):", level.flag());
    for b in suite() {
        let _span = SpanGuard::enter(rec, "benchmark", || b.name.to_string());
        let binary = b.compile(level)?;
        let mut m = Machine::new(&binary)?;
        let exit = m.run_unprofiled()?;
        let stats = m.trace_cache_stats();
        rec.counter_add(Counter::TraceHeatPromotions, stats.heat_promotions);
        rec.counter_add(Counter::TraceInstalls, stats.installs);
        rec.counter_add(Counter::TracePasses, stats.passes);
        rec.counter_add(Counter::TraceSideExits, stats.side_exits);
        rec.counter_add(Counter::TraceChainTransfers, stats.chain_transfers);
        rec.counter_add(Counter::TraceInvalidations, stats.invalidations);
        let mut traces = m.trace_summaries();
        traces.sort_by_key(|t| std::cmp::Reverse(t.passes));
        println!(
            "{:<12} {} traces, {}/{} instrs in superblocks ({:.1}%)",
            b.name,
            stats.traces,
            stats.superblock_instrs,
            exit.instrs,
            100.0 * stats.superblock_instrs as f64 / exit.instrs.max(1) as f64,
        );
        for t in traces.iter().take(4) {
            let side_exits: u64 = t.segs.iter().map(|s| s.side_exits).sum();
            let dense: u32 = t.segs.iter().map(|s| s.dense).sum();
            println!(
                "  {:#010x} {} {:>2} segs / {:>3} slots / {:>3} dense  \
                 {:>10} passes  {:>7} side exits  hold {:>5.1}%",
                t.entry_pc,
                if t.looped { "loop" } else { "line" },
                t.segs.len(),
                t.slots(),
                dense,
                t.passes,
                side_exits,
                100.0 * t.hold_rate(),
            );
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let level = match args.iter().find(|a| a.starts_with("-O")).map(String::as_str) {
        Some("-O0") => OptLevel::O0,
        Some("-O2") => OptLevel::O2,
        Some("-O3") => OptLevel::O3,
        _ => OptLevel::O1,
    };
    let trace_out = args.iter().position(|a| a == "--trace-out").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("fusion_histogram: --trace-out needs a file path");
            std::process::exit(2);
        })
    });
    let rec = Recorder::new();
    if args.iter().any(|a| a == "--superblocks") {
        superblock_report(level, &rec)?;
    } else {
        let mut pairs: HashMap<(&str, &str), u64> = HashMap::new();
        let mut total = 0u64;
        for b in suite() {
            let _span = SpanGuard::enter(&rec, "benchmark", || b.name.to_string());
            let binary = b.compile(level)?;
            let text = binary.decode_text()?;
            let exit = Machine::new(&binary)?.run()?;
            total += exit.profile.total_instrs;
            for i in 0..text.len().saturating_sub(1) {
                // Weight a static pair by the dynamic count of its first
                // instruction: an upper bound on how often the pair retires
                // back to back.
                let n = exit.profile.counts[i];
                if n > 0 {
                    *pairs.entry((mnemonic(text[i]), mnemonic(text[i + 1]))).or_insert(0) += n;
                }
            }
        }
        let mut rows: Vec<_> = pairs.into_iter().collect();
        rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        println!("top adjacent pairs at {} ({} dynamic instrs):", level.flag(), total);
        for ((a, b), n) in rows.into_iter().take(25) {
            println!("{:>6.2}%  {a} ; {b}", 100.0 * n as f64 / total as f64);
        }
    }
    if let Some(path) = trace_out {
        let trace = rec.chrome_trace()?;
        std::fs::write(&path, &trace)?;
        println!(
            "wrote Chrome trace to {path} ({} bytes) — load in chrome://tracing or Perfetto",
            trace.len()
        );
    }
    Ok(())
}
