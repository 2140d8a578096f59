//! Seeded randomness helpers.
//!
//! All stochastic choices in the simulator flow through a [`SimRng`], a
//! ChaCha8-based generator with explicit seeding so that every experiment is
//! reproducible. Derived streams ([`SimRng::derive`]) give independent,
//! stable sub-streams to different model parts (workload generation, protocol
//! jitter, …) so that adding draws to one part does not perturb another.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Named derived-stream identifiers.
///
/// Every model part that draws randomness derives its own sub-stream from
/// the experiment seed via [`SimRng::derive`], so adding draws to one part
/// never perturbs another. The identifiers are part of the determinism
/// contract: renumbering them changes every same-seed replay.
pub mod stream {
    /// Client session behaviour: page choices, think times, arrivals.
    pub const SESSIONS: u64 = 1;
    /// World-level protocol jitter (sampled RMI chatter).
    pub const WORLD: u64 = 2;
    /// Load-surge session generation (flash crowds, diurnal shifts).
    /// Independent of `SESSIONS`, so a run with an empty surge list draws
    /// nothing from it and stays byte-identical to a pre-surge build.
    pub const SURGES: u64 = 4;

    /// The per-shard variant of a base stream, for runs split into
    /// independent region shards: shard `index`'s copy of e.g. `SESSIONS`.
    ///
    /// The shard index (plus one) lives in the high 32 bits, so shard
    /// streams can never collide with the global streams above (whose high
    /// bits are zero) or with each other. Like the identifiers themselves,
    /// this encoding is part of the determinism contract.
    pub const fn shard(base: u64, index: usize) -> u64 {
        base | ((index as u64 + 1) << 32)
    }
}

/// A deterministic random number generator for simulations.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent sub-stream identified by `stream`.
    ///
    /// Two derivations with distinct identifiers are statistically
    /// independent; the same identifier always yields the same stream.
    pub fn derive(&self, stream: u64) -> SimRng {
        let mut rng = self.inner.clone();
        rng.set_stream(stream);
        rng.set_word_pos(0);
        SimRng { inner: rng }
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.random_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty set");
        self.inner.random_range(0..n)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return false;
        }
        if p == 1.0 {
            return true;
        }
        self.inner.random::<f64>() < p
    }

    /// Draws an index according to non-negative `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted draw from an empty set");
        let total: f64 = weights.iter().copied().map(|w| w.max(0.0)).sum();
        assert!(total > 0.0, "weights sum to zero");
        let mut draw = self.inner.random::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if draw < w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }

    /// Access to the underlying `rand` RNG for distribution adapters.
    pub fn raw(&mut self) -> &mut impl Rng {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32)
            .filter(|_| a.uniform().to_bits() == b.uniform().to_bits())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn derived_streams_are_stable_and_distinct() {
        let root = SimRng::seed_from_u64(7);
        let mut s1a = root.derive(1);
        let mut s1b = root.derive(1);
        let mut s2 = root.derive(2);
        for _ in 0..50 {
            assert_eq!(s1a.uniform().to_bits(), s1b.uniform().to_bits());
        }
        let mut s1c = root.derive(1);
        let same = (0..32)
            .filter(|_| s1c.uniform().to_bits() == s2.uniform().to_bits())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed_from_u64(5);
        let weights = [0.1, 0.0, 0.9];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let share2 = counts[2] as f64 / 10_000.0;
        assert!((share2 - 0.9).abs() < 0.03, "share {share2}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn index_covers_domain() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn index_on_empty_panics() {
        SimRng::seed_from_u64(0).index(0);
    }

    /// The surge stream is independent: draining it (as surge session
    /// generation does) leaves the session and world streams bit-identical,
    /// so scheduling a surge cannot perturb workload arrival or think-time
    /// draws.
    #[test]
    fn surge_stream_does_not_perturb_workload_streams() {
        let root = SimRng::seed_from_u64(4242);
        let baseline_sessions: Vec<u64> = {
            let mut s = root.derive(stream::SESSIONS);
            (0..256).map(|_| s.uniform().to_bits()).collect()
        };
        let baseline_world: Vec<u64> = {
            let mut w = root.derive(stream::WORLD);
            (0..256).map(|_| w.uniform().to_bits()).collect()
        };

        // Now derive and heavily consume the surge stream first, as a run
        // with surges scheduled would.
        let mut surges = root.derive(stream::SURGES);
        for _ in 0..1_000 {
            surges.uniform();
        }
        let mut s = root.derive(stream::SESSIONS);
        let mut w = root.derive(stream::WORLD);
        for i in 0..256 {
            assert_eq!(s.uniform().to_bits(), baseline_sessions[i]);
            assert_eq!(w.uniform().to_bits(), baseline_world[i]);
        }
    }

    #[test]
    fn named_streams_are_distinct() {
        let root = SimRng::seed_from_u64(1);
        let mut a = root.derive(stream::SESSIONS);
        let mut b = root.derive(stream::WORLD);
        let mut c = root.derive(stream::SURGES);
        let same_ab = (0..32)
            .filter(|_| a.uniform().to_bits() == b.uniform().to_bits())
            .count();
        let same_bc = (0..32)
            .filter(|_| b.uniform().to_bits() == c.uniform().to_bits())
            .count();
        assert!(same_ab < 4 && same_bc < 4);
    }
}
