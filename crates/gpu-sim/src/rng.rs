//! Deterministic counter-based random number generation.
//!
//! CUDA kernels use `curand` with a per-thread state seeded from the global
//! seed and the thread id.  The simulator instead derives every draw from a
//! stateless counter-based generator keyed by the logical unit of work, so
//! results are reproducible regardless of how the host pool schedules the
//! blocks onto threads — or how the corpus is split across devices.

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One 64-bit value from the counter-based ("Philox-style") generator: a
/// pure function of `(seed, stream, counter)` with no sequential state.
///
/// Real CUDA samplers increasingly use counter-based RNGs precisely for the
/// property the workspace's determinism tests rely on: the draw for a given
/// logical unit of work (here: one token of one iteration) is identical no
/// matter which thread block, launch, device — or simulated topology —
/// executes it.
#[inline]
pub fn stable_u64(seed: u64, stream: u64, counter: u64) -> u64 {
    // Three SplitMix64 absorption rounds, one per input word.
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let mut mixed = splitmix64(&mut state) ^ stream.rotate_left(21);
    let mut mixed2 = splitmix64(&mut mixed) ^ counter.rotate_left(42);
    splitmix64(&mut mixed2)
}

/// A uniform draw in `[0, 1)` from the counter-based generator (24 mantissa
/// bits, as `curand_uniform` does).
#[inline]
pub fn stable_f32(seed: u64, stream: u64, counter: u64) -> f32 {
    ((stable_u64(seed, stream, counter) >> 40) as u32) as f32 * (1.0 / (1u32 << 24) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_draws_are_pure_and_well_spread() {
        assert_eq!(stable_u64(1, 2, 3), stable_u64(1, 2, 3));
        assert_ne!(stable_u64(1, 2, 3), stable_u64(1, 2, 4));
        assert_ne!(stable_u64(1, 2, 3), stable_u64(1, 3, 3));
        assert_ne!(stable_u64(1, 2, 3), stable_u64(2, 2, 3));
        let n = 20_000u64;
        let mut sum = 0.0f64;
        for c in 0..n {
            let x = stable_f32(7, 1, c);
            assert!((0.0..1.0).contains(&x));
            sum += x as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
