//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! On a shared host the same code runs at very different speeds from one
//! second to the next. On a 2-vCPU VM, a fixed CPU-bound kernel took from
//! 34 to 92 ms within 40 seconds while the guest reported almost no steal
//! time, and the same `trace_outages` input ran at half its speed ten
//! minutes later. The benchmark runs this kernel before its first iteration
//! and after each one, and divides each iteration's times by the slowdown
//! the kernel measured around it, so the reported times estimate the same
//! work on the reference host.
//!
//! The kernel is the benchmark's own code and calls nothing in psbench, so a
//! change to the program cannot change its work. It does what the
//! simulators' inner loops do: it inserts into and removes from an ordered
//! map keyed by a random stream, allocating a small buffer per entry, on
//! identical inputs every call. It frees all it allocates, but it allocates
//! from the program's heap, so the state the program leaves that heap in can
//! move it a little.
//!
//! Four candidates per workload (five in all) were timed around the
//! iterations of six runs of one seed of each workload. After scaling by
//! this one, the runs of `fleet_1000` spread 0.047 of their median (0.49
//! unscaled; 0.23 with a sort and heap kernel that stays in the per-core
//! cache), `trace_outages` 0.060 (0.34; 0.17) and `serve_journaled` 0.081
//! (0.25; 0.087 with loopback TCP round trips). A sort of 200k records did
//! better on the service (0.041) but worse on both simulations (0.089 and
//! 0.095).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const ENTRIES: usize = 20_000;
const KEY_SPACE: u64 = 100_000;
const VALUE_BYTES: usize = 48;
const SEED: u64 = 0x5eed;

/// Wall seconds one kernel call takes on the reference host: a round figure
/// near its time on the 2-vCPU Xeon VM of `DESIGN.md` (about 7 ms). Scaled
/// times are in seconds of that host.
pub const REFERENCE_S: f64 = 0.007;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn kernel() {
    let mut rng = SplitMix64(SEED);
    let mut map = BTreeMap::new();
    for _ in 0..ENTRIES {
        map.insert(rng.next() % KEY_SPACE, vec![0u8; VALUE_BYTES]);
    }
    let mut removed = 0usize;
    for _ in 0..ENTRIES {
        if let Some(value) = map.remove(&(rng.next() % KEY_SPACE)) {
            removed += value.len();
        }
    }
    black_box((removed, map.len()));
}

/// How many times slower than on the reference host one kernel call runs
/// now.
pub fn slowdown() -> f64 {
    let t = Instant::now();
    kernel();
    t.elapsed().as_secs_f64() / REFERENCE_S
}
