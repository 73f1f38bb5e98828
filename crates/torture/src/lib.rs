//! Fault-injection torture harness for the partitioning flow.
//!
//! The flow's contract on foreign input is *panic-free, hang-free, typed*:
//! any binary — corrupt, truncated, adversarial, or random — must either
//! complete the full profile → decompile → partition → synthesize → cosim
//! pipeline or fail with a typed [`FlowError`]; per-region trouble degrades
//! the affected kernel to software with a recorded
//! [`Diagnostic`](binpart_core::Diagnostic). This crate checks that
//! contract mechanically: a seeded generator derives hostile mutants from
//! six families and drives every one through [`StagedFlow::cosimulate`],
//! asserting
//!
//! 1. **zero panics** — each mutant runs under `catch_unwind` with a
//!    recording panic hook; any unwind is a violation;
//! 2. **zero hangs** — simulator step budgets and decompiler fuel bound
//!    every loop, so a mutant either finishes or trips a *typed* budget
//!    error; a wall-clock watchdog per mutant backstops the claim;
//! 3. **differential correctness** — every mutant that partitions and
//!    co-simulates successfully must be bit-identical to its own software
//!    oracle (exit state) with a clean per-invocation store differential.
//!
//! # Mutation families
//!
//! | family | hostile property exercised |
//! |---|---|
//! | `bitflip` | random bit flips in `.text` of a real benchmark |
//! | `truncate` | `.text` cut mid-function / mid-delay-slot |
//! | `jumptable` | `.data` words of a jump-table benchmark rewritten |
//! | `irreducible` | synthetic CFGs: branches into loop bodies, self-loops |
//! | `stream` | random-but-decodable MIPS instruction streams |
//! | `callgraph` | recursion + register-indirect calls (`jalr`) |
//!
//! Everything is derived from one `u64` seed through the workspace's
//! vendored xoshiro [`StdRng`], so a failing mutant is reproducible from
//! the report line alone. See `crates/bench/src/bin/README.md` for the
//! CLI knobs and default budgets.

use binpart_core::flow::{FlowError, FlowOptions};
use binpart_core::{CosimReport, StagedFlow};
use binpart_mips::sim::SimConfig;
use binpart_mips::{encode, Asm, Binary, BinaryBuilder, Instr, Reg};
use binpart_minicc::OptLevel;
use binpart_telemetry::Recorder;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Harness configuration. `Default` matches the CI smoke run apart from
/// the mutant count.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Seed for the whole campaign; every mutant is derived from it.
    pub seed: u64,
    /// Number of mutants to generate and run.
    pub count: usize,
    /// Dynamic-instruction budget per simulator run (the hang bound; trips
    /// surface as typed `MaxStepsExceeded`).
    pub max_steps: u64,
    /// Wall-clock watchdog per mutant; exceeding it is reported as a hang
    /// violation even though the run eventually finished.
    pub watchdog: Duration,
    /// Print one line per mutant instead of only the summary.
    pub verbose: bool,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            seed: 0xDA7E_2005,
            count: 250,
            max_steps: 2_000_000,
            watchdog: Duration::from_secs(60),
            verbose: false,
        }
    }
}

/// Outcome of a torture campaign. [`TortureSummary::violations`] is the
/// harness's verdict: zero means the panic-free contract held.
#[derive(Debug, Default)]
pub struct TortureSummary {
    /// Mutants generated and run.
    pub total: usize,
    /// Full-pipeline successes (cosim completed, differential clean).
    pub succeeded: usize,
    /// Of the successes, how many degraded at least one region to
    /// software (carried a non-empty diagnostic log).
    pub degraded: usize,
    /// Typed whole-flow errors, keyed by a short error label.
    pub error_kinds: BTreeMap<String, usize>,
    /// Contract violations: a panic escaped the pipeline.
    pub panics: Vec<String>,
    /// Contract violations: a successful run whose hybrid diverged from
    /// the software oracle (exit state or store differential).
    pub mismatches: Vec<String>,
    /// Contract violations: a mutant exceeded the wall-clock watchdog.
    pub hangs: Vec<String>,
}

impl TortureSummary {
    /// Total contract violations (the process exit code is 1 when > 0).
    pub fn violations(&self) -> usize {
        self.panics.len() + self.mismatches.len() + self.hangs.len()
    }

    /// Total typed errors across kinds.
    pub fn typed_errors(&self) -> usize {
        self.error_kinds.values().sum()
    }
}

/// The last panic message captured by the recording hook.
static LAST_PANIC: Mutex<Option<String>> = Mutex::new(None);

fn panic_message(info: &panic::PanicHookInfo<'_>) -> String {
    let loc = info
        .location()
        .map(|l| format!("{}:{}", l.file(), l.line()))
        .unwrap_or_else(|| "<unknown>".into());
    let msg = info
        .payload()
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| info.payload().downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string payload>".into());
    format!("{msg} ({loc})")
}

/// Runs a full campaign. Installs a recording panic hook for the
/// duration (restored before returning) so escaped panics are captured
/// quietly instead of spamming stderr per mutant.
pub fn run_campaign(cfg: &TortureConfig) -> TortureSummary {
    let bases = base_corpus();
    let mut summary = TortureSummary::default();

    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|info| {
        *LAST_PANIC.lock().unwrap_or_else(|p| p.into_inner()) = Some(panic_message(info));
    }));

    for i in 0..cfg.count {
        // Each mutant gets its own generator stream so a reproduction run
        // does not depend on how earlier mutants consumed entropy.
        let mutant_seed = cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut mrng = StdRng::seed_from_u64(mutant_seed);
        let (label, bin) = generate_mutant(&mut mrng, &bases);
        let label = format!("#{i} {label} (seed {mutant_seed:#x})");
        let options = random_options(&mut mrng, cfg);

        // A fresh recorder per mutant: when this mutant violates the
        // contract, its report carries the span stack that was open at the
        // point of failure and the last few counter/event deltas — the
        // post-mortem a bare panic message cannot give.
        let rec = Recorder::new();
        // Ditto for the hardware side: drop the previous mutant's FSMD
        // post-mortem so a violation here reports its *own* bus history.
        binpart_hwsim::clear_post_mortem();
        let t0 = Instant::now();
        let result =
            panic::catch_unwind(AssertUnwindSafe(|| run_pipeline(&bin, &options, &rec)));
        let elapsed = t0.elapsed();
        summary.total += 1;

        if elapsed > cfg.watchdog {
            summary.hangs.push(format!(
                "{label}: took {:.1}s{}",
                elapsed.as_secs_f64(),
                violation_context(&rec)
            ));
        }
        match result {
            Ok(Ok(report)) => {
                let clean = report.exit_bit_identical && report.store_mismatches() == 0;
                if clean {
                    summary.succeeded += 1;
                    if !report.diagnostics.is_empty() {
                        summary.degraded += 1;
                    }
                    if cfg.verbose {
                        println!(
                            "{label}: ok ({} kernels, {} diagnostics)",
                            report.kernels.len(),
                            report.diagnostics.len()
                        );
                    }
                } else {
                    summary.mismatches.push(format!(
                        "{label}: exit_bit_identical={} store_mismatches={}{}",
                        report.exit_bit_identical,
                        report.store_mismatches(),
                        violation_context(&rec)
                    ));
                }
            }
            Ok(Err(e)) => {
                *summary.error_kinds.entry(error_label(&e)).or_insert(0) += 1;
                if cfg.verbose {
                    println!("{label}: typed error: {e}");
                }
            }
            Err(_) => {
                let msg = LAST_PANIC
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .take()
                    .unwrap_or_else(|| "<no hook message>".into());
                summary
                    .panics
                    .push(format!("{label}: panic: {msg}{}", violation_context(&rec)));
            }
        }
    }

    panic::set_hook(prev_hook);
    summary
}

/// The full pipeline on one binary: profile → decompile → partition →
/// synthesize → hybrid co-simulation with store differential, recorded on
/// the mutant's telemetry recorder (span guards stay open across a panic,
/// so `rec` holds the active stage stack when the pipeline unwinds).
fn run_pipeline(
    bin: &Binary,
    options: &FlowOptions,
    rec: &Recorder,
) -> Result<CosimReport, FlowError> {
    StagedFlow::with_telemetry(bin, rec).cosimulate(options)
}

/// Post-mortem context from a mutant's recorder, appended to every
/// violation line: the span stack that was open when the pipeline stopped
/// and the most recent counter/event deltas — plus, when the mutant
/// reached the hybrid machine, the hardware post-mortem (current FSM
/// state and the last few bus transactions, kept by the instrumented
/// FSMD across aborts and unwinds). This runs while reporting another
/// failure, so it must never panic itself —
/// [`telemetry_emission_smoke`] checks that mechanically.
pub fn violation_context(rec: &Recorder) -> String {
    let spans = rec.open_span_stack();
    let spans = if spans.is_empty() {
        "<none>".to_string()
    } else {
        spans.join(" > ")
    };
    let recent = rec.recent_activity(8);
    let recent = if recent.is_empty() {
        "<none>".to_string()
    } else {
        recent.join("; ")
    };
    let hw = binpart_hwsim::post_mortem_context()
        .map(|c| format!(" | hw: {c}"))
        .unwrap_or_default();
    format!(" | open spans: {spans} | recent: {recent}{hw}")
}

/// CI check on the reporting path itself: everything the violation
/// reports lean on — mid-span context reads, unbalanced span bookkeeping,
/// report/trace rendering, context after a panicking pipeline — must be
/// panic-free. Returns `Err` (never unwinds) if any of it panicked.
pub fn telemetry_emission_smoke() -> Result<(), String> {
    use binpart_telemetry::{Counter, SpanGuard, Telemetry};
    // Quiet hook: this smoke deliberately panics inside `catch_unwind`,
    // and the default hook would spray a backtrace mid-report.
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let outcome = panic::catch_unwind(|| {
        let rec = Recorder::new();
        // Mid-span context, exactly as the violation path reads it.
        let guard = SpanGuard::enter(&rec, "profile", || "smoke".to_string());
        rec.counter_add(Counter::Diagnostics, 1);
        let ctx = violation_context(&rec);
        assert!(ctx.contains("profile"), "open span missing from context: {ctx}");
        assert!(ctx.contains("diagnostics"), "counter delta missing: {ctx}");
        drop(guard);
        // Unbalanced bookkeeping surfaces as a typed error at export time,
        // not as a panic anywhere on the way.
        rec.span_exit("never-entered");
        assert!(rec.chrome_trace().is_err(), "unbalanced exit must fail export");
        let report = rec.report();
        assert!(report.errors > 0, "span defect not recorded");
        let _ = report.render();
        // A panicking pipeline leaves its spans open; context still reads.
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            let _g = SpanGuard::enter(&rec, "decompile", String::new);
            panic!("simulated mutant panic");
        }));
        let ctx = violation_context(&rec);
        assert!(ctx.contains("decompile"), "post-panic span missing: {ctx}");
        // The hardware post-mortem read is part of the same reporting
        // path: reading with nothing recorded and after a clear must both
        // be panic-free (and contribute nothing to the line).
        binpart_hwsim::clear_post_mortem();
        assert!(binpart_hwsim::post_mortem_context().is_none());
        assert!(!violation_context(&rec).contains(" | hw: "));
    });
    panic::set_hook(prev_hook);
    outcome.map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string payload>".into());
        format!("telemetry emission path panicked: {msg}")
    })
}

/// Randomizes the option axes that change which code paths run, under a
/// fixed step budget.
fn random_options(rng: &mut StdRng, cfg: &TortureConfig) -> FlowOptions {
    let mut options = FlowOptions {
        sim: SimConfig {
            max_steps: cfg.max_steps,
            ..SimConfig::default()
        },
        ..FlowOptions::default()
    };
    options.decompile.recover_jump_tables = rng.gen();
    options.decompile.software_fallback = rng.gen();
    // This draw once picked the simulator engine, which is no longer an
    // option. It is kept and discarded so every seed still yields the
    // same mutant stream as before.
    let _: bool = rng.gen();
    options
}

/// Short stable label for the summary histogram.
fn error_label(e: &FlowError) -> String {
    match e {
        FlowError::Sim(s) => format!("sim: {s:?}")
            .split(['{', '('])
            .next()
            .unwrap_or("sim")
            .trim()
            .to_string(),
        FlowError::Decompile(d) => format!("decompile: {d:?}")
            .split(['{', '('])
            .next()
            .unwrap_or("decompile")
            .trim()
            .to_string(),
        FlowError::Synth(_) => "synth".to_string(),
        FlowError::Cosim(_) => "cosim".to_string(),
    }
}

/// Real benchmark binaries the corruption families start from: a plain
/// kernel, a jump-table benchmark, and a multi-loop one, at two
/// optimization levels each.
fn base_corpus() -> Vec<(String, Binary)> {
    let mut out = Vec::new();
    for b in binpart_workloads::suite() {
        if !matches!(b.name, "crc" | "tblook01" | "autcor00" | "aifirf01") {
            continue;
        }
        for level in [OptLevel::O1, OptLevel::O2] {
            match b.compile(level) {
                Ok(bin) => out.push((format!("{}{}", b.name, level.flag()), bin)),
                Err(e) => unreachable!("suite benchmark {} failed to compile: {e}", b.name),
            }
        }
    }
    assert!(!out.is_empty(), "base corpus is empty");
    out
}

/// Picks a family and generates one mutant.
fn generate_mutant(rng: &mut StdRng, bases: &[(String, Binary)]) -> (String, Binary) {
    match rng.gen_range(0..6) {
        0 => bitflip(rng, bases),
        1 => truncate(rng, bases),
        2 => jumptable(rng, bases),
        3 => ("irreducible".into(), irreducible(rng)),
        4 => ("stream".into(), random_stream(rng)),
        _ => ("callgraph".into(), callgraph(rng)),
    }
}

fn pick_base<'a>(rng: &mut StdRng, bases: &'a [(String, Binary)]) -> &'a (String, Binary) {
    &bases[rng.gen_range(0..bases.len())]
}

/// Flips 1–3 random bits in each of 1–4 random `.text` words.
fn bitflip(rng: &mut StdRng, bases: &[(String, Binary)]) -> (String, Binary) {
    let (name, base) = pick_base(rng, bases);
    let mut bin = base.clone();
    let words = rng.gen_range(1..5);
    for _ in 0..words {
        let at = rng.gen_range(0..bin.text.len());
        for _ in 0..rng.gen_range(1..4) {
            bin.text[at] ^= 1u32 << rng.gen_range(0..32);
        }
    }
    (format!("bitflip:{name}"), bin)
}

/// Truncates `.text` to a random prefix; the cut lands mid-function and
/// regularly splits a branch from its delay slot.
fn truncate(rng: &mut StdRng, bases: &[(String, Binary)]) -> (String, Binary) {
    let (name, base) = pick_base(rng, bases);
    let mut bin = base.clone();
    let keep = rng.gen_range(2..bin.text.len());
    bin.text.truncate(keep);
    if bin.entry >= bin.text_end() {
        bin.entry = bin.text_base;
    }
    let end = bin.text_end();
    bin.symbols.retain(|s| s.addr < end);
    (format!("truncate:{name}"), bin)
}

/// Rewrites 1–4 aligned `.data` words — where jump tables live — with
/// either random values or plausible-but-wrong in-text addresses.
fn jumptable(rng: &mut StdRng, bases: &[(String, Binary)]) -> (String, Binary) {
    let (name, base) = pick_base(rng, bases);
    let mut bin = base.clone();
    if bin.data.len() < 8 {
        bin.data.resize(64, 0);
    }
    let words = bin.data.len() / 4;
    for _ in 0..rng.gen_range(1..5) {
        let w = rng.gen_range(0..words);
        let value: u32 = if rng.gen() {
            rng.gen::<u32>()
        } else {
            // An in-text address that is *not* a real case target.
            bin.text_base + 4 * rng.gen_range(0..bin.text.len()) as u32
        };
        bin.data[w * 4..w * 4 + 4].copy_from_slice(&value.to_le_bytes());
    }
    (format!("jumptable:{name}"), bin)
}

const TEMPS: [Reg; 8] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::T7,
];

fn temp(rng: &mut StdRng) -> Reg {
    TEMPS[rng.gen_range(0..TEMPS.len())]
}

/// Synthesizes a CFG with branches into other branches' bodies, self-loops,
/// and backward edges into block middles — the irreducible shapes
/// structural recovery cannot reduce. Termination is not guaranteed by
/// construction; the step budget is the bound, and tripping it must be a
/// typed error.
fn irreducible(rng: &mut StdRng) -> Binary {
    let len = rng.gen_range(24..96);
    let mut text: Vec<Instr> = Vec::with_capacity(len + 2);
    for i in 0..len {
        let instr = match rng.gen_range(0..8) {
            0 => Instr::Addu {
                rd: temp(rng),
                rs: temp(rng),
                rt: temp(rng),
            },
            1 => Instr::Addiu {
                rt: temp(rng),
                rs: temp(rng),
                imm: (rng.gen::<u32>() & 0xff) as i16 - 128,
            },
            2 => Instr::Xor {
                rd: temp(rng),
                rs: temp(rng),
                rt: temp(rng),
            },
            3 => Instr::Sll {
                rd: temp(rng),
                rt: temp(rng),
                shamt: (rng.gen::<u32>() % 31) as u8,
            },
            4 | 5 => {
                // Branch anywhere in the stream, including into delay
                // slots and straight at itself (offset -1 relative to the
                // slot): hostile on purpose.
                let target = rng.gen_range(0..len) as i64;
                let offset = (target - i as i64 - 1).clamp(i16::MIN as i64, i16::MAX as i64);
                Instr::Beq {
                    rs: temp(rng),
                    rt: Reg::Zero,
                    offset: offset as i16,
                }
            }
            6 => Instr::Bne {
                rs: temp(rng),
                rt: temp(rng),
                offset: if rng.gen() { -1 } else { 1 },
            },
            _ => Instr::NOP,
        };
        text.push(instr);
    }
    text.push(Instr::Jr { rs: Reg::Ra });
    text.push(Instr::NOP);
    BinaryBuilder::new().text(text).build()
}

/// A stream of random words filtered to the decodable subset, so the
/// decoder accepts the program but no structural invariant holds.
fn random_stream(rng: &mut StdRng) -> Binary {
    let len = rng.gen_range(16..128);
    let mut words = Vec::with_capacity(len + 2);
    let mut guard = 0;
    while words.len() < len && guard < 100_000 {
        guard += 1;
        let w = rng.gen::<u32>();
        if binpart_mips::decode(w).is_ok() {
            words.push(w);
        }
    }
    words.push(encode(Instr::Jr { rs: Reg::Ra }));
    words.push(encode(Instr::NOP));
    BinaryBuilder::new().text_words(words).build()
}

/// Bounded recursion plus a register-indirect call — the call shapes the
/// decompiler must reject per-region (kernels containing calls stay in
/// software) without taking the whole flow down.
fn callgraph(rng: &mut StdRng) -> Binary {
    let depth = rng.gen_range(3..10) as i16;
    let mut asm = Asm::new();

    let rec = asm.new_label();
    let done = asm.new_label();
    let indirect = asm.new_label();
    let main = asm.new_label();

    // rec(a0): if a0 < depth { rec(a0 + 1) }
    asm.bind(rec);
    asm.addiu(Reg::Sp, Reg::Sp, -8);
    asm.sw(Reg::Ra, 4, Reg::Sp);
    asm.slti(Reg::T1, Reg::A0, depth);
    asm.beq(Reg::T1, Reg::Zero, done);
    asm.nop();
    asm.addiu(Reg::A0, Reg::A0, 1);
    asm.jal(rec);
    asm.nop();
    asm.bind(done);
    asm.lw(Reg::Ra, 4, Reg::Sp);
    asm.addiu(Reg::Sp, Reg::Sp, 8);
    asm.jr(Reg::Ra);
    asm.nop();

    // indirect(): v0 += 7
    asm.bind(indirect);
    asm.addiu(Reg::V0, Reg::V0, 7);
    asm.jr(Reg::Ra);
    asm.nop();

    // main: rec(0); (*indirect)();
    asm.bind(main);
    asm.addiu(Reg::Sp, Reg::Sp, -8);
    asm.sw(Reg::Ra, 4, Reg::Sp);
    asm.addiu(Reg::A0, Reg::Zero, 0);
    asm.jal(rec);
    asm.nop();
    let target = asm
        .label_addr(indirect)
        .unwrap_or(binpart_mips::DEFAULT_TEXT_BASE);
    asm.la(Reg::T0, target);
    asm.jalr(Reg::T0);
    asm.nop();
    asm.lw(Reg::Ra, 4, Reg::Sp);
    asm.addiu(Reg::Sp, Reg::Sp, 8);
    asm.jr(Reg::Ra);
    asm.nop();

    let entry = asm
        .label_addr(main)
        .unwrap_or(binpart_mips::DEFAULT_TEXT_BASE);
    let text = match asm.finish() {
        Ok(t) => t,
        Err(_) => vec![Instr::Jr { rs: Reg::Ra }, Instr::NOP],
    };
    // Half the mutants additionally take one corrupting bit flip.
    let mut bin = BinaryBuilder::new().text(text).entry(entry).build();
    if rng.gen() {
        let at = rng.gen_range(0..bin.text.len());
        bin.text[at] ^= 1u32 << rng.gen_range(0..32);
    }
    bin
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature campaign (every family represented) must finish with
    /// zero contract violations. The CI smoke runs the same harness at
    /// N ≥ 200 via the `torture` binary.
    #[test]
    fn mini_campaign_is_panic_free() {
        let cfg = TortureConfig {
            seed: 0x7e57_0001,
            count: 36,
            max_steps: 500_000,
            ..TortureConfig::default()
        };
        let s = run_campaign(&cfg);
        assert_eq!(s.total, 36);
        assert_eq!(s.panics, Vec::<String>::new());
        assert_eq!(s.mismatches, Vec::<String>::new());
        assert_eq!(s.hangs, Vec::<String>::new());
        // Hostile inputs must actually exercise the error paths: a
        // campaign where everything "succeeds" means the mutator is inert.
        assert!(s.typed_errors() > 0, "no typed errors: {s:?}");
    }

    /// A second seed through the superblock engine every mutant runs on:
    /// hostile mutants stress the trace recorder (irreducible/self-loop
    /// shapes), mid-trace faults (bitflip/truncate), and cache
    /// invalidation (hybrid trap boundaries) — none may panic or diverge
    /// from the oracle.
    #[test]
    fn superblock_mini_campaign_is_panic_free() {
        let cfg = TortureConfig {
            seed: 0x7e57_0002,
            count: 36,
            max_steps: 500_000,
            ..TortureConfig::default()
        };
        let s = run_campaign(&cfg);
        assert_eq!(s.total, 36);
        assert_eq!(s.panics, Vec::<String>::new());
        assert_eq!(s.mismatches, Vec::<String>::new());
        assert_eq!(s.hangs, Vec::<String>::new());
        assert!(s.typed_errors() > 0, "no typed errors: {s:?}");
    }

    /// The emission path behind violation reports never panics — the same
    /// check the `--smoke` CI preset runs.
    #[test]
    fn telemetry_emission_path_is_panic_free() {
        telemetry_emission_smoke().unwrap();
    }

    /// Violation context reads cleanly mid-pipeline: an open span and
    /// recent counter traffic both show up, and an idle recorder renders
    /// placeholders instead of panicking on empty state.
    #[test]
    fn violation_context_names_open_spans_and_recent_deltas() {
        use binpart_telemetry::{Counter, SpanGuard, Telemetry};
        let rec = Recorder::new();
        assert!(violation_context(&rec).contains("<none>"));
        let _g = SpanGuard::enter(&rec, "cosimulate", String::new);
        rec.counter_add(Counter::HybridTrapEntries, 3);
        let ctx = violation_context(&rec);
        assert!(ctx.contains("open spans: cosimulate"), "{ctx}");
        assert!(ctx.contains("hybrid_trap_entries"), "{ctx}");
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let cfg = TortureConfig {
            seed: 42,
            count: 12,
            max_steps: 200_000,
            ..TortureConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.succeeded, b.succeeded);
        assert_eq!(a.error_kinds, b.error_kinds);
    }
}
