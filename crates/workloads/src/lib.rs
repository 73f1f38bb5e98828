//! The benchmark suite: twenty mini-C programs modeled on the kernels of
//! EEMBC, PowerStone, and MediaBench, plus four in-house kernels — the same
//! mix (and the same *kinds* of programs) the paper evaluates.
//!
//! Licensing prevents shipping the real suites; each stand-in exercises the
//! same code-path class (FIR/convolution, CRC/bit manipulation, table
//! lookup with dense switches, DCT, SAD, run-length coding, ...). Two
//! EEMBC-class benchmarks (`tblook01`, `canrdr01`) contain dense `switch`
//! statements that compile to jump tables, reproducing the paper's two
//! CDFG-recovery failures from indirect jumps.
//!
//! Every program is deterministic and self-checking: `main` returns a
//! checksum, identical at every optimization level.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use binpart_minicc::{compile, CompileError, OptLevel};
use binpart_mips::Binary;

/// Which suite a benchmark is modeled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// EEMBC-style automotive/telecom kernels.
    Eembc,
    /// Motorola PowerStone.
    PowerStone,
    /// MediaBench.
    MediaBench,
    /// The authors' in-house suite.
    InHouse,
}

impl Suite {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Eembc => "EEMBC",
            Suite::PowerStone => "PowerStone",
            Suite::MediaBench => "MediaBench",
            Suite::InHouse => "in-house",
        }
    }
}

/// One benchmark program.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Name (mirrors the style of the original suite).
    pub name: &'static str,
    /// Originating suite style.
    pub suite: Suite,
    /// Mini-C source.
    pub source: &'static str,
    /// Whether the binary contains a dense switch (jump table at `-O1+`),
    /// which defeats plain CDFG recovery.
    pub has_jump_table: bool,
}

impl Benchmark {
    /// Compiles the benchmark at `level`.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`]; suite sources are tested to compile at
    /// every level.
    pub fn compile(&self, level: OptLevel) -> Result<Binary, CompileError> {
        compile(self.source, level)
    }
}

/// Returns the full 20-benchmark suite.
pub fn suite() -> Vec<Benchmark> {
    vec![
        // ------------------------------ EEMBC-style ------------------------
        Benchmark {
            name: "aifirf01",
            suite: Suite::Eembc,
            has_jump_table: false,
            source: "
int samples[256]; int coefs[16]; int outbuf[64];
int main(void) {
  int i; int j; int acc; int chk = 0;
  for (i = 0; i < 256; i++) samples[i] = (i * 37 + 11) & 0x3ff;
  for (i = 0; i < 16; i++) coefs[i] = (i * 5 - 40);
  for (j = 0; j < 64; j++) {
    acc = 0;
    for (i = 0; i < 16; i++) acc += samples[j * 3 + i] * coefs[i];
    outbuf[j] = acc >> 8;
    chk += outbuf[j];
  }
  return chk & 0xffff;
}",
        },
        Benchmark {
            name: "autcor00",
            suite: Suite::Eembc,
            has_jump_table: false,
            source: "
int sig[128]; int r[16];
int main(void) {
  int i; int k; int acc; int chk = 0;
  for (i = 0; i < 128; i++) sig[i] = ((i * 73) & 0xff) - 128;
  for (k = 0; k < 16; k++) {
    acc = 0;
    for (i = 0; i < 112; i++) acc += sig[i] * sig[i + k];
    r[k] = acc >> 4;
    chk += r[k];
  }
  return chk & 0xffff;
}",
        },
        Benchmark {
            name: "conven00",
            suite: Suite::Eembc,
            has_jump_table: false,
            source: "
unsigned char bits[512]; unsigned char out[512];
int main(void) {
  int i; int rep; unsigned int state; int chk = 0;
  for (i = 0; i < 512; i++) bits[i] = (unsigned char)((i * 29 + 3) & 1);
  for (rep = 0; rep < 4; rep++) {
    state = 0;
    for (i = 0; i < 512; i++) {
      state = ((state << 1) | bits[i]) & 0x3f;
      out[i] = (unsigned char)(((state & 0x2d) != 0) ^ ((state & 0x1b) != 0));
      chk += out[i];
    }
  }
  return chk;
}",
        },
        Benchmark {
            name: "matrix01",
            suite: Suite::Eembc,
            has_jump_table: false,
            source: "
int ma[64]; int mb[64]; int mc[64];
int main(void) {
  int i; int j; int k; int acc; int chk = 0;
  for (i = 0; i < 64; i++) { ma[i] = (i * 7) & 0x1f; mb[i] = (i * 13) & 0x1f; }
  for (i = 0; i < 8; i++)
    for (j = 0; j < 8; j++) {
      acc = 0;
      for (k = 0; k < 8; k++) acc += ma[i * 8 + k] * mb[k * 8 + j];
      mc[i * 8 + j] = acc;
    }
  for (i = 0; i < 64; i++) chk += mc[i];
  return chk & 0xffff;
}",
        },
        Benchmark {
            name: "tblook01",
            suite: Suite::Eembc,
            has_jump_table: true,
            source: "
int table[64]; int keys[128];
int classify(int v) {
  switch (v & 7) {
    case 0: return 1;
    case 1: return 3;
    case 2: return 7;
    case 3: return 15;
    case 4: return 12;
    case 5: return 9;
    case 6: return 5;
    case 7: return 2;
  }
  return 0;
}
int main(void) {
  int i; int chk = 0;
  for (i = 0; i < 64; i++) table[i] = i * 3;
  for (i = 0; i < 128; i++) keys[i] = (i * 41) & 0x3f;
  for (i = 0; i < 128; i++) chk += table[keys[i]] + classify(keys[i]);
  return chk & 0xffff;
}",
        },
        Benchmark {
            name: "canrdr01",
            suite: Suite::Eembc,
            has_jump_table: true,
            source: "
unsigned char frames[256]; int counters[8];
int main(void) {
  int i; int id; int chk = 0;
  for (i = 0; i < 256; i++) frames[i] = (unsigned char)((i * 61 + 7) & 0xff);
  for (i = 0; i < 256; i++) {
    id = frames[i] & 7;
    switch (id) {
      case 0: counters[0] += 1; break;
      case 1: counters[1] += 2; break;
      case 2: counters[2] += 3; break;
      case 3: counters[3] += 5; break;
      case 4: counters[4] += 7; break;
      case 5: counters[5] += 11; break;
      case 6: counters[6] += 13; break;
      case 7: counters[7] += 17; break;
    }
  }
  for (i = 0; i < 8; i++) chk += counters[i];
  return chk & 0xffff;
}",
        },
        // --------------------------- PowerStone-style ----------------------
        Benchmark {
            name: "adpcm",
            suite: Suite::PowerStone,
            has_jump_table: false,
            source: "
int pcm[256]; int enc[256];
int main(void) {
  int i; int rep; int pred; int delta; int step; int chk = 0;
  for (i = 0; i < 256; i++) pcm[i] = ((i * 89) & 0x7ff) - 1024;
  for (rep = 0; rep < 4; rep++) {
    pred = 0; step = 16;
    for (i = 0; i < 256; i++) {
      delta = pcm[i] - pred;
      if (delta < 0) delta = -delta;
      enc[i] = delta / 8 + (step >> 3);
      pred = pcm[i];
      if (enc[i] > step) step += 4; else if (step > 8) step -= 4;
      chk += enc[i];
    }
  }
  return chk & 0xffff;
}",
        },
        Benchmark {
            name: "bcnt",
            suite: Suite::PowerStone,
            has_jump_table: false,
            source: "
unsigned int words[128];
int main(void) {
  int i; int rep; unsigned int x; int total = 0;
  for (i = 0; i < 128; i++) words[i] = (unsigned int)(i * 2654435761u);
  for (rep = 0; rep < 8; rep++) {
    for (i = 0; i < 128; i++) {
      x = words[i];
      x = x - ((x >> 1) & 0x55555555u);
      x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
      x = (x + (x >> 4)) & 0x0f0f0f0fu;
      total += (int)((x * 0x01010101u) >> 24);
    }
  }
  return total & 0xffff;
}",
        },
        Benchmark {
            name: "blit",
            suite: Suite::PowerStone,
            has_jump_table: false,
            source: "
unsigned int src_img[128]; unsigned int dst_img[128];
int main(void) {
  int i; int rep; int chk = 0;
  for (i = 0; i < 128; i++) src_img[i] = (unsigned int)(i * 0x9e3779b9u);
  for (rep = 0; rep < 8; rep++)
    for (i = 0; i < 128; i++)
      dst_img[i] = (dst_img[i] & 0xff00ff00u) | (src_img[i] & 0x00ff00ffu);
  for (i = 0; i < 128; i++) chk += (int)(dst_img[i] & 0xffu) + (int)((dst_img[i] >> 16) & 0xffu);
  return chk & 0xffff;
}",
        },
        Benchmark {
            name: "crc",
            suite: Suite::PowerStone,
            has_jump_table: false,
            source: "
unsigned char msg[256];
int main(void) {
  int i; int k; unsigned int crc = 0xFFFFFFFFu;
  for (i = 0; i < 256; i++) msg[i] = (unsigned char)((i * 17 + 5) & 0xff);
  for (i = 0; i < 256; i++) {
    crc = crc ^ msg[i];
    for (k = 0; k < 8; k++) {
      if (crc & 1u) crc = (crc >> 1) ^ 0xEDB88320u;
      else crc = crc >> 1;
    }
  }
  return (int)(crc & 0xffff);
}",
        },
        Benchmark {
            name: "g3fax",
            suite: Suite::PowerStone,
            has_jump_table: false,
            source: "
unsigned char runs[200]; unsigned char line[512];
int main(void) {
  int i; int j; int pos; int color; int chk = 0; int rep;
  for (i = 0; i < 200; i++) runs[i] = (unsigned char)(((i * 31) & 7) + 1);
  for (rep = 0; rep < 4; rep++) {
    pos = 0; color = 0;
    for (i = 0; i < 200; i++) {
      for (j = 0; j < runs[i]; j++) {
        if (pos < 512) { line[pos] = (unsigned char)color; }
        pos++;
      }
      color = 1 - color;
    }
    for (i = 0; i < 512; i++) chk += line[i];
  }
  return chk & 0xffff;
}",
        },
        Benchmark {
            name: "pocsag",
            suite: Suite::PowerStone,
            has_jump_table: false,
            source: "
unsigned int cw[64];
int main(void) {
  int i; int k; int rep; unsigned int w; unsigned int par; int chk = 0;
  for (i = 0; i < 64; i++) cw[i] = (unsigned int)(i * 0x8005u + 3u);
  for (rep = 0; rep < 8; rep++) {
    for (i = 0; i < 64; i++) {
      w = cw[i];
      par = 0;
      for (k = 0; k < 21; k++) { par = par ^ (w & 1u); w = w >> 1; }
      chk += (int)par;
    }
  }
  return chk & 0xffff;
}",
        },
        // --------------------------- MediaBench-style ----------------------
        Benchmark {
            name: "jpegdct",
            suite: Suite::MediaBench,
            has_jump_table: false,
            source: "
int block_data[64]; int tmp[64];
int main(void) {
  int i; int j; int rep; int chk = 0;
  for (i = 0; i < 64; i++) block_data[i] = ((i * 19) & 0xff) - 128;
  for (rep = 0; rep < 16; rep++) {
    for (i = 0; i < 8; i++) {
      int s0 = block_data[i * 8 + 0] + block_data[i * 8 + 7];
      int s1 = block_data[i * 8 + 1] + block_data[i * 8 + 6];
      int s2 = block_data[i * 8 + 2] + block_data[i * 8 + 5];
      int s3 = block_data[i * 8 + 3] + block_data[i * 8 + 4];
      int d0 = block_data[i * 8 + 0] - block_data[i * 8 + 7];
      int d1 = block_data[i * 8 + 1] - block_data[i * 8 + 6];
      tmp[i * 8 + 0] = s0 + s3 + s1 + s2;
      tmp[i * 8 + 4] = s0 + s3 - s1 - s2;
      tmp[i * 8 + 2] = ((s0 - s3) * 17 + (s1 - s2) * 7) >> 4;
      tmp[i * 8 + 6] = ((s0 - s3) * 7 - (s1 - s2) * 17) >> 4;
      tmp[i * 8 + 1] = (d0 * 23 + d1 * 19) >> 4;
      tmp[i * 8 + 7] = (d0 * 19 - d1 * 23) >> 4;
      tmp[i * 8 + 3] = (d0 * 13 + d1 * 5) >> 4;
      tmp[i * 8 + 5] = (d0 * 5 - d1 * 13) >> 4;
    }
    for (j = 0; j < 64; j++) chk += tmp[j];
  }
  return chk & 0xffff;
}",
        },
        Benchmark {
            name: "mpeg2sad",
            suite: Suite::MediaBench,
            has_jump_table: false,
            source: "
unsigned char refb[512]; unsigned char cur[256];
int main(void) {
  int x; int y; int d; int best; int sad; int chk = 0; int off;
  for (x = 0; x < 512; x++) refb[x] = (unsigned char)((x * 37) & 0xff);
  for (x = 0; x < 256; x++) cur[x] = (unsigned char)((x * 11 + 3) & 0xff);
  best = 0x7fffffff;
  for (off = 0; off < 16; off++) {
    sad = 0;
    for (y = 0; y < 16; y++)
      for (x = 0; x < 16; x++) {
        d = (int)cur[y * 16 + x] - (int)refb[y * 16 + x + off];
        if (d < 0) d = -d;
        sad += d;
      }
    if (sad < best) best = sad;
    chk += sad;
  }
  return (chk + best) & 0xffff;
}",
        },
        Benchmark {
            name: "g721pred",
            suite: Suite::MediaBench,
            has_jump_table: false,
            source: "
int dq[256]; int wsum[256];
int main(void) {
  int i; int rep; int b0 = 12; int b1 = -7; int b2 = 3; int chk = 0;
  for (i = 0; i < 256; i++) dq[i] = ((i * 57) & 0x1ff) - 256;
  for (rep = 0; rep < 8; rep++) {
    for (i = 2; i < 256; i++) {
      wsum[i] = (dq[i] * b0 + dq[i - 1] * b1 + dq[i - 2] * b2) >> 4;
      chk += wsum[i];
    }
  }
  return chk & 0xffff;
}",
        },
        Benchmark {
            name: "epicfilt",
            suite: Suite::MediaBench,
            has_jump_table: false,
            source: "
int image[260]; int filt[260];
int main(void) {
  int i; int rep; int chk = 0;
  for (i = 0; i < 260; i++) image[i] = (i * 29) & 0xff;
  for (rep = 0; rep < 8; rep++) {
    for (i = 2; i < 258; i++)
      filt[i] = (image[i - 2] + 4 * image[i - 1] + 6 * image[i]
                 + 4 * image[i + 1] + image[i + 2]) >> 4;
    for (i = 2; i < 258; i++) chk += filt[i];
  }
  return chk & 0xffff;
}",
        },
        // ------------------------------ in-house ---------------------------
        Benchmark {
            name: "brev",
            suite: Suite::InHouse,
            has_jump_table: false,
            source: "
unsigned int vals[128];
int main(void) {
  int i; int rep; unsigned int v; int chk = 0;
  for (i = 0; i < 128; i++) vals[i] = (unsigned int)(i * 2246822519u);
  for (rep = 0; rep < 8; rep++) {
    for (i = 0; i < 128; i++) {
      v = vals[i];
      v = ((v >> 1) & 0x55555555u) | ((v & 0x55555555u) << 1);
      v = ((v >> 2) & 0x33333333u) | ((v & 0x33333333u) << 2);
      v = ((v >> 4) & 0x0f0f0f0fu) | ((v & 0x0f0f0f0fu) << 4);
      v = ((v >> 8) & 0x00ff00ffu) | ((v & 0x00ff00ffu) << 8);
      v = (v >> 16) | (v << 16);
      chk += (int)(v >> 24);
    }
  }
  return chk & 0xffff;
}",
        },
        Benchmark {
            name: "popstream",
            suite: Suite::InHouse,
            has_jump_table: false,
            source: "
unsigned char stream[512];
int main(void) {
  int i; int k; int rep; int ones = 0; unsigned int b;
  for (i = 0; i < 512; i++) stream[i] = (unsigned char)((i * 97 + 13) & 0xff);
  for (rep = 0; rep < 4; rep++) {
    for (i = 0; i < 512; i++) {
      b = stream[i];
      for (k = 0; k < 8; k++) { ones += (int)(b & 1u); b = b >> 1; }
    }
  }
  return ones & 0xffff;
}",
        },
        Benchmark {
            name: "strsearch",
            suite: Suite::InHouse,
            has_jump_table: false,
            source: "
unsigned char text[512]; unsigned char pat[8];
int main(void) {
  int i; int j; int rep; int hits = 0; int ok;
  for (i = 0; i < 512; i++) text[i] = (unsigned char)(97 + ((i * 7) & 3));
  for (i = 0; i < 8; i++) pat[i] = (unsigned char)(97 + ((i * 7) & 3));
  for (rep = 0; rep < 4; rep++) {
    for (i = 0; i + 8 <= 512; i++) {
      ok = 1;
      for (j = 0; j < 8; j++) {
        if (text[i + j] != pat[j]) { ok = 0; break; }
      }
      hits += ok;
    }
  }
  return hits & 0xffff;
}",
        },
        Benchmark {
            name: "fletcher",
            suite: Suite::InHouse,
            has_jump_table: false,
            source: "
unsigned char data_buf[512];
int main(void) {
  int i; int rep; unsigned int a; unsigned int b;
  for (i = 0; i < 512; i++) data_buf[i] = (unsigned char)((i * 3 + 1) & 0xff);
  a = 1; b = 0;
  for (rep = 0; rep < 8; rep++) {
    for (i = 0; i < 512; i++) {
      a = (a + data_buf[i]) % 65521u;
      b = (b + a) % 65521u;
    }
  }
  return (int)((b ^ a) & 0xffff);
}",
        },
    ]
}

/// The four benchmarks (one per suite) used in the optimization-level study
/// (experiment E3).
pub fn opt_level_subset() -> Vec<Benchmark> {
    let names = ["aifirf01", "crc", "jpegdct", "brev"];
    suite()
        .into_iter()
        .filter(|b| names.contains(&b.name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use binpart_mips::sim::Machine;
    use binpart_mips::Reg;

    #[test]
    fn suite_has_twenty_benchmarks_with_two_jump_tables() {
        let s = suite();
        assert_eq!(s.len(), 20);
        assert_eq!(s.iter().filter(|b| b.has_jump_table).count(), 2);
        // suite mix matches the paper's sources
        assert_eq!(s.iter().filter(|b| b.suite == Suite::Eembc).count(), 6);
        assert_eq!(s.iter().filter(|b| b.suite == Suite::PowerStone).count(), 6);
        assert_eq!(s.iter().filter(|b| b.suite == Suite::MediaBench).count(), 4);
        assert_eq!(s.iter().filter(|b| b.suite == Suite::InHouse).count(), 4);
    }

    #[test]
    fn all_benchmarks_compile_and_run_consistently_across_levels() {
        for b in suite() {
            let mut results = Vec::new();
            for level in OptLevel::ALL {
                let binary = b
                    .compile(level)
                    .unwrap_or_else(|e| panic!("{} fails to compile at {level}: {e}", b.name));
                let mut m = Machine::new(&binary).expect("load");
                // Checksums only — the profile-free fast path suffices.
                let exit = m
                    .run_unprofiled()
                    .unwrap_or_else(|e| panic!("{} fails to run at {level}: {e}", b.name));
                results.push(exit.reg(Reg::V0));
            }
            assert!(
                results.windows(2).all(|w| w[0] == w[1]),
                "{}: results differ across levels: {results:?}",
                b.name
            );
            assert_ne!(results[0], 0, "{}: checksum is trivially zero", b.name);
        }
    }

    #[test]
    fn known_checksums_match_reference() {
        // Independent Rust references for three benchmarks.
        let crc_expected = {
            let mut crc: u32 = 0xffff_ffff;
            for i in 0..256u32 {
                crc ^= (i * 17 + 5) & 0xff;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xedb8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            crc & 0xffff
        };
        let bcnt_expected = {
            let mut total: i64 = 0;
            for _ in 0..8 {
                for i in 0..128i64 {
                    let x = (i as u32).wrapping_mul(2654435761);
                    total += x.count_ones() as i64;
                }
            }
            (total & 0xffff) as u32
        };
        let pop_expected = {
            let mut ones: i64 = 0;
            for _ in 0..4 {
                for i in 0..512i64 {
                    let b = ((i * 97 + 13) & 0xff) as u32;
                    ones += b.count_ones() as i64;
                }
            }
            (ones & 0xffff) as u32
        };
        for (name, expected) in [
            ("crc", crc_expected),
            ("bcnt", bcnt_expected),
            ("popstream", pop_expected),
        ] {
            let b = suite().into_iter().find(|b| b.name == name).unwrap();
            let binary = b.compile(OptLevel::O1).unwrap();
            let mut m = Machine::new(&binary).unwrap();
            let got = m.run().unwrap().reg(Reg::V0);
            assert_eq!(got, expected, "{name}");
        }
    }

    #[test]
    fn opt_level_subset_is_one_per_suite() {
        let s = opt_level_subset();
        assert_eq!(s.len(), 4);
        let suites: std::collections::HashSet<_> = s.iter().map(|b| b.suite).collect();
        assert_eq!(suites.len(), 4);
    }

    #[test]
    fn benchmarks_are_reasonably_sized() {
        for b in suite() {
            let binary = b.compile(OptLevel::O1).unwrap();
            let mut m = Machine::new(&binary).unwrap();
            let exit = m.run_unprofiled().unwrap();
            assert!(
                exit.instrs > 10_000,
                "{}: too few dynamic instructions ({})",
                b.name,
                exit.instrs
            );
            assert!(
                exit.instrs < 20_000_000,
                "{}: too many dynamic instructions ({})",
                b.name,
                exit.instrs
            );
        }
    }
}
