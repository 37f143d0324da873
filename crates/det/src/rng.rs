//! Seeded, portable pseudo-random number generation.
//!
//! The generator is **xoshiro256++** (Blackman & Vigna), seeded by
//! expanding a single `u64` through **SplitMix64** — the combination the
//! xoshiro authors recommend. Both algorithms are defined purely in terms
//! of 64-bit wrapping integer arithmetic, so a given seed produces the
//! same stream on every platform, architecture and compiler. That
//! bit-reproducibility is what makes the study's workloads and page-I/O
//! numbers comparable across machines.
//!
//! ```
//! use tc_det::Rng;
//! let mut a = Rng::from_seed(7);
//! let mut b = Rng::from_seed(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.random_range(10..20u32);
//! assert!((10..20).contains(&x));
//! ```

/// SplitMix64 step: mixes `state` and returns the next output.
///
/// Used for seed expansion and for deriving independent case seeds in the
/// property harness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the canonical seed for one *cell* of an experiment grid.
///
/// This is the workspace's cell-seeding convention (see the crate docs):
/// a parallel scheduler must never hand cells draws of a shared stream —
/// draw order would then depend on scheduling order, and the sweep would
/// stop being reproducible. Instead, every cell derives its seed as a
/// pure function of a stream constant (`base`, one per logical stream)
/// and the cell's coordinates, by chaining SplitMix64 over them. The
/// result feeds [`Rng::from_seed`], whose stream the cell then consumes
/// in sequential order.
///
/// ```
/// use tc_det::rng::cell_seed;
/// // (family, instance, set) coordinates; order matters, values commute nowhere.
/// let a = cell_seed(0xDA12_1994, &[4, 0, 1]);
/// assert_eq!(a, cell_seed(0xDA12_1994, &[4, 0, 1]));
/// assert_ne!(a, cell_seed(0xDA12_1994, &[4, 1, 0]));
/// assert_ne!(a, cell_seed(0xBEEF, &[4, 0, 1]));
/// ```
pub fn cell_seed(base: u64, coords: &[u64]) -> u64 {
    let mut state = base;
    let mut out = splitmix64(&mut state);
    for &c in coords {
        // Fold each coordinate into the state before mixing so that
        // permuted coordinates yield unrelated streams.
        state ^= c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        out = splitmix64(&mut state);
    }
    out
}

/// A deterministic xoshiro256++ generator with a `rand`-flavoured API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    ///
    /// Distinct seeds — including adjacent ones like 0, 1, 2 — yield
    /// statistically independent streams.
    pub fn from_seed(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// The next 32 uniformly distributed bits (upper half of the stream).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A uniform value in `range` (`lo..hi` or `lo..=hi`).
    ///
    /// Panics on an empty range, like `rand`.
    pub fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Uniform `u64` in `[0, bound)` by Lemire's unbiased multiply-shift
    /// rejection method.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // 128-bit multiply-high, rejecting the biased low fringe.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform Fisher–Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }
}

/// Ranges an [`Rng`] can sample uniformly. Implemented for `Range` and
/// `RangeInclusive` over the common integer types.
pub trait SampleRange<T> {
    /// Draws a uniform sample from `self`.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded_u64(span) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_stream() {
        // xoshiro256++ seeded with SplitMix64(1234567): golden first
        // outputs, locking the implementation against silent drift.
        let mut rng = Rng::from_seed(1234567);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut again = Rng::from_seed(1234567);
        let second: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(first, second);
        assert_eq!(first[0], 0x0610_E053_DD55_AB68);
        assert_eq!(first[1], 0x70C9_79E2_6E27_FBAC);
    }

    #[test]
    fn splitmix_reference() {
        // Golden values from the SplitMix64 reference implementation
        // (Steele, Lea & Flood), seed 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = Rng::from_seed(3);
        for _ in 0..10_000 {
            let a = rng.random_range(5..17u32);
            assert!((5..17).contains(&a));
            let b = rng.random_range(0..=3usize);
            assert!(b <= 3);
            let c = rng.random_range(7..8u64);
            assert_eq!(c, 7);
        }
    }

    #[test]
    fn range_covers_domain() {
        let mut rng = Rng::from_seed(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.random_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::from_seed(0).random_range(5..5u32);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::from_seed(21);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "seed 21 should not yield identity shuffle");
    }

    #[test]
    fn mean_of_f64_is_centered() {
        let mut rng = Rng::from_seed(77);
        let mean: f64 = (0..20_000).map(|_| rng.f64()).sum::<f64>() / 20_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
