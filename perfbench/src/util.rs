//! Small helpers: a seeded PRNG, order statistics, the host fingerprint
//! and process memory.

use std::hint::black_box;
use std::time::Instant;

/// splitmix64: every workload input is drawn from this, seeded by the
/// `--seed` argument, so one seed always gives the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one sub-stream (`stream`) of `seed`.
    pub fn derive(seed: u64, stream: u64) -> Self {
        Self(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The tails every workload reports, at most the `top` percentile: p90
/// for session time, which the session counts of a 30 s run support on
/// every workload (at least ten samples beyond it) and which host
/// scheduling hiccups move less than p95; p75 for verdict lag, whose upper
/// decile on `live-locked` is where the daemon's decode backlog lands when
/// the OS runs three busy threads on two cores. With fewer samples it
/// falls back to the highest lower percentile that leaves ten beyond.
/// Returns `(percentile, samples_beyond, value)`.
pub fn tail(values: &[f64], top: f64) -> (f64, usize, f64) {
    const LADDER: [f64; 3] = [90.0, 75.0, 50.0];
    let n = values.len();
    let beyond = |p: f64| n - ((p / 100.0) * n as f64).ceil() as usize;
    let p = LADDER
        .into_iter()
        .find(|&p| p <= top && beyond(p) >= 10)
        .unwrap_or(50.0);
    (p, beyond(p), percentile(values, p))
}

/// Where a result was measured. Results whose fingerprints differ must
/// not be compared.
pub struct Fingerprint {
    pub nproc: usize,
    pub os: &'static str,
    pub arch: &'static str,
    /// Median ns of a fixed loop of 10⁶ dependent multiply-adds.
    pub calibration_ns: f64,
}

impl Fingerprint {
    pub fn measure() -> Self {
        let mut runs = Vec::with_capacity(7);
        for _ in 0..7 {
            let start = Instant::now();
            let mut x = 0x1234_5678_u64;
            for _ in 0..1_000_000 {
                x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
            }
            runs.push(start.elapsed().as_nanos() as f64);
        }
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
            calibration_ns: median(&runs),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"os\":\"{}\",\"arch\":\"{}\",\"calibration_ns\":{}}}",
            self.nproc, self.os, self.arch, self.calibration_ns
        )
    }
}

/// Slots of the calibration kernel's table (8 MiB of `u64`s).
const KERNEL_SLOTS: usize = 1 << 20;

/// Keys the calibration kernel inserts and then looks up.
const KERNEL_KEYS: u64 = 300_000;

/// Bytes of the kernel's fresh region: above glibc's largest mmap
/// threshold (32 MiB), so it is always mapped fresh and unmapped when
/// freed, whatever state the workload left the heap in.
const KERNEL_FRESH_BYTES: usize = 36 << 20;

/// Pages of the fresh region the kernel fills, faulting each in.
const KERNEL_FRESH_PAGES: usize = 4096;

thread_local! {
    /// The kernel's table, allocated once per thread so that its time does
    /// not depend on the state the workload leaves the allocator in.
    static KERNEL_TABLE: std::cell::RefCell<Vec<u64>> =
        std::cell::RefCell::new(vec![0; KERNEL_SLOTS]);
}

/// Runs the calibration kernel once and returns its wall time in ms. It
/// does the two kinds of work the workloads' time is made of, away from
/// the workloads' own data: random accesses through the cache hierarchy
/// (clear an 8 MiB open-addressing table, insert [`KERNEL_KEYS`]
/// pseudo-random keys with linear probing, probe as many) and page faults
/// (fill the first [`KERNEL_FRESH_PAGES`] pages of a freshly mapped
/// region). Its time moves with the host's memory-system speed and
/// fault cost as the workloads' time does; the multiply loop of
/// [`Fingerprint`] does not.
pub fn calibration_ms() -> f64 {
    KERNEL_TABLE.with(|table| {
        let table = &mut *table.borrow_mut();
        let mask = table.len() - 1;
        let start = Instant::now();
        table.fill(0);
        let mut x = 7_u64;
        for _ in 0..KERNEL_KEYS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = x | 1;
            let mut slot = mix(key) as usize & mask;
            while table[slot] != 0 && table[slot] != key {
                slot = (slot + 1) & mask;
            }
            table[slot] = key;
        }
        let mut found = 0_u64;
        for i in 0..KERNEL_KEYS {
            let key = mix(i) | 1;
            let mut slot = mix(key) as usize & mask;
            while table[slot] != 0 {
                if table[slot] == key {
                    found += 1;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        black_box(found);
        let mut fresh: Vec<u8> = Vec::with_capacity(KERNEL_FRESH_BYTES);
        fresh.resize(KERNEL_FRESH_PAGES * 4096, 1);
        drop(black_box(fresh));
        start.elapsed().as_secs_f64() * 1e3
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&values, 90.0), (90.0, 20, 180.0));
        assert_eq!(tail(&values, 75.0), (75.0, 50, 150.0));
        let (p, beyond, _) = tail(&values[..40], 90.0);
        assert_eq!((p, beyond), (75.0, 10));
    }

    #[test]
    fn rng_streams_repeat() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(7, 1).next_u64(), Rng::derive(7, 2).next_u64());
    }
}
