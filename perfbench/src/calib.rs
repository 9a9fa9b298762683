//! Host-speed calibration.
//!
//! A shared host's speed drifts: on the 2-core development guest, a fixed
//! CPU loop ran anywhere from 0.15 to 0.23 s per sample, in fast and slow
//! phases lasting seconds to minutes, and the two CPUs drifted
//! independently. So every measured unit of work (a set-up, one config's
//! simulation, one shape's exploration) is bracketed by a run of a fixed
//! kernel that belongs to the benchmark, not to the program, and its time
//! is scaled by how fast that kernel ran next to it:
//!
//! `scaled = measured * CAL_REF_S / mean(kernel before, kernel after)`
//!
//! A scaled time is in seconds of a host on which the kernel takes
//! [`CAL_REF_S`]. A change to the program moves the measured time and not
//! the kernel's; a change in host speed moves both.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The kernel's time on the reference host, in seconds. On the 2-core
/// 2.1 GHz Xeon development guest, its median over a run ranged from 0.05
/// to 0.076 s; this is the slow end, so scaled times are close to what
/// that host measures when it is slow.
pub const CAL_REF_S: f64 = 0.075;

/// The kernel's table: 4 MiB of `u64`, so its random accesses reach past
/// the private caches as the simulator's do.
const TABLE_WORDS: usize = 1 << 19;
/// Kernel iterations per calibration.
const ITERS: u32 = 12_000_000;

static TABLE: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Random read-modify-writes into the table with a data-dependent branch:
/// memory latency, integer work and branch prediction, like the program's
/// hot loops.
fn kernel(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & mask;
        let v = table[j];
        acc = acc.wrapping_add(if v & 1 == 0 {
            v >> 1
        } else {
            v.wrapping_mul(3).wrapping_add(1)
        });
        table[j] = v ^ acc;
    }
    acc
}

/// Run the kernel once; its host time in seconds. The table is allocated
/// and touched on the first call, outside the timing.
pub fn calibrate() -> f64 {
    let mut table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    if table.is_empty() {
        *table = (0..TABLE_WORDS as u64).collect();
    }
    let t0 = Instant::now();
    black_box(kernel(black_box(&mut table)));
    t0.elapsed().as_secs_f64()
}

/// Kernel runs between units of measured work.
pub struct Calibrator {
    last: f64,
    /// Every kernel time, in seconds.
    pub samples: Vec<f64>,
}

impl Calibrator {
    /// Run the kernel before the first unit.
    pub fn start() -> Self {
        let last = calibrate();
        Self {
            last,
            samples: vec![last],
        }
    }

    /// Run the kernel after a unit; the factor that scales the unit's
    /// host times to the reference host.
    pub fn factor(&mut self) -> f64 {
        let now = calibrate();
        let f = CAL_REF_S * 2.0 / (self.last + now);
        self.last = now;
        self.samples.push(now);
        f
    }

    /// The median kernel time, in seconds.
    pub fn median_s(&self) -> f64 {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_reference_over_the_bracketing_kernel_times() {
        let mut c = Calibrator::start();
        let f = c.factor();
        let (before, after) = (c.samples[0], c.samples[1]);
        assert!(before > 0.0 && after > 0.0);
        assert!((f * (before + after) / 2.0 - CAL_REF_S).abs() < 1e-12);
        assert!(c.median_s() == before.max(after));
    }
}
