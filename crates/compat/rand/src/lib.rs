//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *small* subset of the `rand` 0.9 API its code actually
//! uses: the [`Rng`] / [`SeedableRng`] traits, [`rngs::StdRng`] (here a
//! xoshiro256** generator — deterministic per seed, statistically solid
//! for simulation workloads, **not** cryptographically secure), and
//! [`seq::SliceRandom::shuffle`].
//!
//! Determinism is part of the contract: the whole experiment pipeline
//! seeds `StdRng` explicitly and asserts bit-identical reruns. The
//! entropy constructors (`thread_rng`, `from_entropy`, `OsRng`) are
//! absent on purpose, and the replay-critical crates' `clippy.toml`
//! already bans them should they ever appear.

use std::ops::Range;

/// Types that can be sampled uniformly from a [`Range`] by [`Rng::random_range`].
pub trait SampleUniform: Copy {
    /// Draws a uniform value in `[range.start, range.end)`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as u128).wrapping_sub(range.start as u128);
                // Modulo bias is < 2^-64 for every span this workspace uses.
                range.start + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize);

macro_rules! uniform_signed {
    ($($t:ty : $u:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (range.start as i128 + off) as $t
            }
        }
    )*};
}

uniform_signed!(i8: u8, i16: u16, i32: u32, i64: u64, isize: usize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample empty range");
        let unit = rng.unit_f64();
        range.start + unit * (range.end - range.start)
    }
}

impl SampleUniform for f32 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample empty range");
        range.start + (rng.unit_f64() as f32) * (range.end - range.start)
    }
}

/// A source of randomness (the `rand` 0.9 method names this code uses).
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` built from the top 53 bits.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform value in `[range.start, range.end)`.
    #[inline]
    fn random_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }

    /// A uniform boolean with probability `p` of `true`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.unit_f64() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256** seeded via
    /// SplitMix64. Deterministic per seed across platforms.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the reference seeding procedure.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            // xoshiro256** step.
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

/// Sequence helpers, mirroring `rand::seq`.
pub mod seq {
    use super::Rng;

    /// Random slice operations.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element (`None` on an empty slice).
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[(rng.next_u64() % self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.random_range(3u64..17);
            assert!((3..17).contains(&v));
            let f = rng.random_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let i = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn unit_f64_uniformish() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With 50 elements the identity permutation is essentially impossible.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
