//! Host-speed calibration.
//!
//! The benchmark shares its host with other work, and the host's speed
//! swings by ±20% over tens of seconds. A fixed kernel, independent of the
//! repository's code, runs around every timed repeat; host times are
//! reported scaled by `REFERENCE_S` over the kernel's median time in the
//! same run, i.e. in seconds on a host where the kernel takes
//! `REFERENCE_S`. Because the kernel never changes, a change to the
//! simulator moves the scaled times exactly as it moves the raw ones.

use std::time::{Duration, Instant};

/// The kernel's time on this benchmark's reference host (a quiet 2-vCPU
/// x86-64 virtual machine at 2.1 GHz).
pub const REFERENCE_S: f64 = 0.025;

/// Time a fixed kernel: 3M data-dependent read-modify-writes at random
/// slots of a 4 MB table. Of the kernels tried, this one's time tracked the
/// simulator's through the host's slow and fast phases most closely
/// (cache-heavy, branchy work, like event dispatch).
pub fn kernel() -> Duration {
    let start = Instant::now();
    let mut table = vec![0u64; 1 << 19];
    let mut x = 12_345u64;
    for _ in 0..3_000_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 45) as usize;
        if table[i] & 1 == 0 {
            table[i] = table[i].wrapping_add(x);
        } else {
            table[i ^ 1] ^= x;
        }
    }
    std::hint::black_box(&table);
    start.elapsed()
}
