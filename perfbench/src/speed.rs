//! Host-speed normalisation of the timed metrics.
//!
//! On a shared host the speed a thread gets drifts between states for
//! seconds at a time: a neighbour on the same physical core, memory
//! traffic, frequency. On the 2-core host this benchmark was tuned on, the
//! same `transpile` call took 20 ms in the fast state and 31 ms in the slow
//! one, and a run could spend all of its window in either. That drift is
//! larger than any bound a benchmark can usefully set.
//!
//! A fixed reference kernel — perfbench's own code, which no change to the
//! repository can speed up — is run between the timed operations, and
//! every timing is scaled by `NOMINAL_MS / kernel_ms`, with `kernel_ms` the
//! median of the kernel readings around the operation. Timings are thus
//! reported in milliseconds of a host on which the kernel takes
//! [`NOMINAL_MS`]. A faster program reads faster; a slower host does not.
//! Binned over 2 s, the kernel's slow-to-fast ratio (1.26–1.45) followed
//! `transpile`'s (1.23–1.57), which brought 2 s medians of a fixed call
//! from a ±25 % range to about ±6 %.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference host, in ms: about the kernel's
/// median on the tuning host, so scaled times read close to wall time.
pub const NOMINAL_MS: f64 = 0.15;
/// Readings within this many seconds of an operation set its factor.
const WINDOW_S: f64 = 1.0;
/// The factor rests on at least this many readings, the nearest in time.
const MIN_READINGS: usize = 15;

/// One run of the reference kernel: ordered-map inserts of small heap
/// values, the allocation- and pointer-heavy mix the router spends its
/// time in. Returns its wall time in ms.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 1u64;
    for _ in 0..1500 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, vec![x; 3]);
    }
    black_box(&map);
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel readings of one run, each at its midpoint in seconds after the
/// log's origin.
#[derive(Debug)]
pub struct SpeedLog {
    t0: Instant,
    readings: Vec<(f64, f64)>,
}

impl SpeedLog {
    /// An empty log whose times count from `t0`.
    pub fn new(t0: Instant) -> SpeedLog {
        SpeedLog {
            t0,
            readings: Vec::new(),
        }
    }

    /// Seconds from the log's origin to now.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Run the kernel `n` times and record each reading.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let ms = kernel_ms();
            let mid = self.now() - ms / 2e3;
            self.readings.push((mid, ms));
        }
    }

    /// Scale factor for an operation centred at `t`: `NOMINAL_MS` over the
    /// median reading within [`WINDOW_S`] of it, widened to the nearest
    /// [`MIN_READINGS`] readings when the window holds fewer. 1 when the
    /// log is empty.
    pub fn factor_at(&self, t: f64) -> f64 {
        let mut near: Vec<f64> = self
            .readings
            .iter()
            .filter(|(at, _)| (at - t).abs() <= WINDOW_S)
            .map(|&(_, ms)| ms)
            .collect();
        if near.len() < MIN_READINGS {
            let mut by_distance: Vec<(f64, f64)> = self
                .readings
                .iter()
                .map(|&(at, ms)| ((at - t).abs(), ms))
                .collect();
            by_distance.sort_by(|a, b| a.0.total_cmp(&b.0));
            near = by_distance
                .into_iter()
                .take(MIN_READINGS)
                .map(|(_, ms)| ms)
                .collect();
        }
        if near.is_empty() {
            return 1.0;
        }
        NOMINAL_MS / crate::report::quantile(&near, 0.5)
    }

    /// The factor over every reading of the run (for the notes).
    pub fn overall_factor(&self) -> f64 {
        let all: Vec<f64> = self.readings.iter().map(|&(_, ms)| ms).collect();
        if all.is_empty() {
            return 1.0;
        }
        NOMINAL_MS / crate::report::quantile(&all, 0.5)
    }
}

/// The CPUs this process may run on, as the kernel reports them; empty
/// when that cannot be read.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; CPU_MASK_BYTES];
    // SAFETY: the kernel writes at most `CPU_MASK_BYTES` bytes into `mask`.
    let rc = unsafe { sched_getaffinity(0, CPU_MASK_BYTES, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_MASK_BYTES * 8)
        .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Restrict the calling thread, and the threads it spawns from now on, to
/// `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u8; CPU_MASK_BYTES];
    for &cpu in cpus {
        mask[cpu / 8] |= 1 << (cpu % 8);
    }
    // SAFETY: `mask` is `CPU_MASK_BYTES` long and only read by the kernel.
    unsafe { sched_setaffinity(0, CPU_MASK_BYTES, mask.as_ptr()) == 0 }
}

/// The allowed CPUs split between a server and its load generator.
#[derive(Debug, Clone)]
pub struct CpuSplit {
    /// The one CPU the server under test runs on.
    pub server: usize,
    /// Every other allowed CPU, for the generator.
    pub rest: Vec<usize>,
}

/// Split the allowed CPUs into one for the server and the rest for the
/// generator; `None` when fewer than two are allowed.
pub fn cpu_split() -> Option<CpuSplit> {
    let cpus = allowed_cpus();
    let (&server, rest) = cpus.split_first()?;
    (!rest.is_empty()).then(|| CpuSplit {
        server,
        rest: rest.to_vec(),
    })
}

/// Bytes of the CPU masks passed to the kernel (1024 CPUs).
const CPU_MASK_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// Time `f` at the reference speed: the kernel runs [`SETUP_READINGS`]
/// times just before and just after it, and the wall time is scaled by the
/// median of those readings. Returns the scaled seconds and `f`'s value.
pub fn timed_scaled<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let mut log = SpeedLog::new(Instant::now());
    log.sample(SETUP_READINGS);
    let t = Instant::now();
    let value = f();
    let secs = t.elapsed().as_secs_f64();
    log.sample(SETUP_READINGS);
    (secs * log.overall_factor(), value)
}

/// Kernel runs on each side of a [`timed_scaled`] operation.
const SETUP_READINGS: usize = 15;
