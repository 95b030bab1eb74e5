//! Deterministic pseudo-random number generation.
//!
//! The simulator carries its own PRNG — **xoshiro256++** seeded through
//! SplitMix64 — instead of depending on an external crate whose stream might
//! change between versions. Every experiment in the paper reproduction is
//! identified by a single `u64` seed; the same seed always yields the same
//! event schedule and therefore bit-identical reports.
//!
//! The generator also supports cheap *stream splitting* ([`Rng::split`]):
//! each server or application can own an independent sub-stream derived from
//! the parent seed, so adding instrumentation that draws extra numbers in one
//! component does not perturb any other component.

/// SplitMix64 step; used for seeding and stream splitting.
///
/// Reference: Sebastiano Vigna, <https://prng.di.unimi.it/splitmix64.c>.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256++ generator.
///
/// Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
/// generators", <https://prng.di.unimi.it/xoshiro256plusplus.c>.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed. The four state words are
    /// produced by SplitMix64, which guarantees a non-zero state for every
    /// seed, including zero.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child generator. The child stream is a
    /// function of the parent's current state, so successive `split` calls
    /// produce distinct streams, and the parent advances by one draw.
    pub fn split(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in the half-open interval `[0, 1)` with 53 bits of
    /// precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Panics in debug builds when `lo > hi`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased multiply-shift
    /// rejection method. Panics when `n == 0`.
    pub fn uniform_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform_u64 upper bound must be positive");
        // Fast path for powers of two.
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index in `[0, n)` for container indexing.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.uniform_u64(n as u64) as usize
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.index(xs.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the canonical C implementation of
    /// xoshiro256++ seeded with SplitMix64(1..=4 steps from seed 0).
    #[test]
    fn matches_reference_stream_shape() {
        // We can't link the C code here, so instead pin the first outputs of
        // our own implementation: any accidental change to the generator
        // breaks reproducibility of every experiment and must be deliberate.
        let mut rng = Rng::new(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_parent_consumption() {
        let mut parent1 = Rng::new(7);
        let child1 = parent1.split();
        let mut parent2 = Rng::new(7);
        let child2 = parent2.split();
        assert_eq!(child1, child2);
        // Consuming the parent after the split does not affect the child.
        parent1.next_u64();
        assert_eq!(child1, child2);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Rng::new(4);
        for _ in 0..10_000 {
            let x = rng.uniform(0.2, 0.4);
            assert!((0.2..0.4).contains(&x));
        }
    }

    #[test]
    fn uniform_u64_unbiased_small_range() {
        let mut rng = Rng::new(5);
        let mut counts = [0u32; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.uniform_u64(5) as usize] += 1;
        }
        let expect = n as f64 / 5.0;
        for &c in &counts {
            // 5-sigma band for a binomial with p = 1/5.
            let sigma = (n as f64 * 0.2 * 0.8).sqrt();
            assert!(
                (c as f64 - expect).abs() < 5.0 * sigma,
                "count {c} vs {expect}"
            );
        }
    }

    #[test]
    fn uniform_u64_power_of_two_path() {
        let mut rng = Rng::new(6);
        for _ in 0..1000 {
            assert!(rng.uniform_u64(8) < 8);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn uniform_u64_zero_panics() {
        Rng::new(0).uniform_u64(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(8);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut rng = Rng::new(9);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(10);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn mean_of_unit_draws_is_half() {
        let mut rng = Rng::new(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }
}
