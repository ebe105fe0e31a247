//! Host-speed calibration.
//!
//! The benchmark shares its machine with other tenants. Besides the
//! second-to-second jitter that per-step medians vote out, their load
//! slows every core by up to a half for minutes at a time, and a whole
//! run can fall inside such a stretch. So around every pass the run also
//! times a fixed probe of std-only work that uses none of the program's
//! code, and reports host times rescaled by the reference probe time over
//! the run's median probe time: host time at the speed at which the
//! probe takes [`REFERENCE_NS`]. A change to the program moves its host
//! times but not the probe, so rescaled figures still compare one commit
//! with another.
//!
//! On a 2-core x86-64 container whose speed swung by up to 2x, the probe
//! tracked checksum host time over 10 s windows with a correlation of
//! 0.95 and cut its window-to-window spread from 14 % to 5 %; over
//! repeated 8 s runs it cut the spread of `host_mbps` from 15 % to 6 %
//! (`frame_offload`), 15 % to 7 % (`stream_mix`) and 16 % to 12 %
//! (`cluster_crash`).

use crate::pass::elapsed_ns;
use std::hint::black_box;
use std::time::Instant;

/// Probe time, ns, on the host speed figures are rescaled to (about an
/// unloaded 2-core x86-64 container).
pub const REFERENCE_NS: f64 = 8.0e6;

/// Random read-modify-writes over a 2 MiB table, then short-lived
/// vectors of 1–64 words: the memory and allocator traffic the serving
/// stack generates, without any of its code.
fn probe() -> u64 {
    const SLOTS: usize = 1 << 18;
    let t = Instant::now();
    let mut table = vec![0u64; SLOTS];
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & (SLOTS - 1);
        table[k] = table[k].wrapping_add(x ^ i);
    }
    black_box(table.iter().fold(0u64, |a, b| a ^ b));
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(64);
    for i in 0..100_000usize {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let v: Vec<u64> = (0..=(x >> 58)).map(|j| j ^ x).collect();
        if live.len() < 64 {
            live.push(v);
        } else {
            live[i % 64] = v;
        }
    }
    black_box(live.len());
    elapsed_ns(t)
}

/// The median of three probes, ns.
pub fn host_probe_ns() -> u64 {
    let mut v = [probe(), probe(), probe()];
    v.sort_unstable();
    v[1]
}
