//! Offline drop-in subset of the `rand` crate.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the slice of rand's API the partitioners use: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], [`Rng::gen_range`] over `Range<usize>`,
//! and [`Rng::gen`] for `f64`/`u32`/`u64`/`bool`. The generator is
//! xoshiro256++ seeded through splitmix64 — deterministic for a given seed,
//! which is all the annealing baseline needs (statistical quality is not
//! load-bearing here).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;

/// Seedable random generators (subset).
pub trait SeedableRng: Sized {
    /// Creates a generator deterministically from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample(rng: &mut impl Rng) -> Self;
}

impl Standard for u64 {
    fn sample(rng: &mut impl Rng) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample(rng: &mut impl Rng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample(rng: &mut impl Rng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample(rng: &mut impl Rng) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Random-value convenience methods (subset).
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform draw from `[range.start, range.end)`.
    fn gen_range(&mut self, range: Range<usize>) -> usize
    where
        Self: Sized,
    {
        let span = range.end - range.start;
        assert!(span > 0, "cannot sample empty range");
        // Multiply-shift rejection-free mapping (Lemire); bias is < 2^-64
        // per draw, irrelevant for the annealer.
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as usize;
        range.start + hi
    }

    /// Draws a value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }
}

/// Random generator implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 stream expands the seed into the full state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(3..13);
            assert!((3..13).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
