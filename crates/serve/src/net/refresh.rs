//! File-watching calibration refresher.
//!
//! A serving daemon outlives its boot-time calibration: device error
//! rates drift, and providers republish calibration data on the order of
//! hours. [`CalibrationRefresher`] closes that loop with zero
//! dependencies — a polling thread stats the watched file and, when its
//! (mtime, length) signature changes, parses it with
//! [`Calibration::from_text`] and hot-swaps it into the shared
//! [`Target`] via [`Target::swap_calibration`]. Jobs already running
//! keep the calibration snapshot they took; jobs that start after the
//! swap see the new generation, and every served result reports which
//! generation it ran under.
//!
//! Failure policy: a missing, unreadable, or unparseable file is
//! **counted and skipped**, never fatal — the server keeps serving under
//! the last good calibration, and two counters split the signal for
//! operators: [`io_errors`](CalibrationRefresher::io_errors) (the file
//! could not be read) vs
//! [`corrupt_skipped`](CalibrationRefresher::corrupt_skipped) (it read
//! but failed parse/validation). A failed file is *retried* — a torn
//! write heals on the writer's next flush — but consecutive failures
//! back the poll interval off exponentially (capped at 16× the base
//! interval, with seeded jitter so a fleet of refreshers pointed at the
//! same flaky store decorrelates); one success snaps it back. The boot
//! signature is recorded *without* applying the file, so a refresher
//! pointed at the file the target was built from does not spuriously
//! bump the generation at startup.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use mirage_core::{Calibration, Target};
use mirage_math::hash::fnv1a;
use mirage_math::Rng;

/// The change-detection signature of the watched file: modification time
/// plus length. Content hashing would be stronger but needs a full read
/// per poll; (mtime, len) is the classic cheap tripwire and every writer
/// that publishes calibration updates bumps at least one of the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileSignature {
    mtime: Option<SystemTime>,
    len: u64,
}

fn signature_of(path: &std::path::Path) -> Option<FileSignature> {
    let meta = std::fs::metadata(path).ok()?;
    Some(FileSignature {
        mtime: meta.modified().ok(),
        len: meta.len(),
    })
}

/// Shared refresher state, observable while the poll thread runs.
#[derive(Debug, Default)]
struct RefreshStats {
    /// Successful hot-swaps applied.
    swaps: AtomicU64,
    /// Changed files that could not be read (I/O failures).
    io_errors: AtomicU64,
    /// Changed files that read but failed parse/validation.
    corrupt_skipped: AtomicU64,
    /// Poll passes completed (for tests to know the thread is live).
    polls: AtomicU64,
}

/// Which way an [`apply`] attempt failed (drives the matching counter).
enum ApplyError {
    /// The file could not be read.
    Io,
    /// The file read but failed parse or calibration validation.
    Corrupt,
}

/// A background thread that polls one calibration file and hot-swaps the
/// shared [`Target`] when the file changes. Stop explicitly with
/// [`stop`](CalibrationRefresher::stop) or implicitly on drop.
#[derive(Debug)]
pub struct CalibrationRefresher {
    stop: Arc<AtomicBool>,
    stats: Arc<RefreshStats>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CalibrationRefresher {
    /// Start watching `path`, polling every `interval`.
    ///
    /// The file's current signature is recorded as the baseline without
    /// being applied — the target's boot calibration stands until the
    /// file actually changes.
    pub fn spawn(target: Arc<Target>, path: PathBuf, interval: Duration) -> CalibrationRefresher {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(RefreshStats::default());
        let thread_stop = Arc::clone(&stop);
        let thread_stats = Arc::clone(&stats);
        let handle = std::thread::Builder::new()
            .name("mirage-cal-refresh".to_owned())
            .spawn(move || {
                poll_loop(&target, &path, interval, &thread_stop, &thread_stats);
            })
            .expect("failed to spawn calibration refresher thread");
        CalibrationRefresher {
            stop,
            stats,
            handle: Some(handle),
        }
    }

    /// Successful hot-swaps applied so far.
    pub fn swaps(&self) -> u64 {
        self.stats.swaps.load(Ordering::SeqCst)
    }

    /// Total failures skipped so far (I/O + corrupt).
    pub fn errors(&self) -> u64 {
        self.io_errors() + self.corrupt_skipped()
    }

    /// Changed files that could not be read so far.
    pub fn io_errors(&self) -> u64 {
        self.stats.io_errors.load(Ordering::SeqCst)
    }

    /// Changed files skipped as corrupt (parse/validation failure) so far.
    pub fn corrupt_skipped(&self) -> u64 {
        self.stats.corrupt_skipped.load(Ordering::SeqCst)
    }

    /// Poll passes completed so far.
    pub fn polls(&self) -> u64 {
        self.stats.polls.load(Ordering::SeqCst)
    }

    /// One-line operator summary of the counters, as shown by the CLI's
    /// `serve` status output.
    pub fn status_line(&self) -> String {
        format!(
            "{} hot swap(s), {} corrupt skipped, {} io error(s), {} poll(s)",
            self.swaps(),
            self.corrupt_skipped(),
            self.io_errors(),
            self.polls()
        )
    }

    /// Signal the poll thread and join it. Idempotent. A panicked poll
    /// thread (which would be a bug, not an environment failure) is
    /// absorbed: the counters stay readable and the swap simply stops.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CalibrationRefresher {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Poll interval after `failures` consecutive apply failures: doubles per
/// failure up to 16×, scaled by a jitter factor in `[1.0, 1.25)` drawn
/// from the refresher's seeded stream.
fn backed_off(interval: Duration, failures: u32, rng: &mut Rng) -> Duration {
    let scaled = interval.saturating_mul(2u32.saturating_pow(failures.min(4)));
    scaled.mul_f64(1.0 + rng.uniform() * 0.25)
}

fn poll_loop(
    target: &Target,
    path: &std::path::Path,
    interval: Duration,
    stop: &AtomicBool,
    stats: &RefreshStats,
) {
    let mut last = signature_of(path);
    // Jitter seeded from the watched path: deterministic per refresher,
    // decorrelated across a fleet watching different files.
    let mut rng = Rng::new(fnv1a(path.to_string_lossy().as_bytes()));
    let mut failures: u32 = 0;
    let mut current_interval = interval;
    // Sleep in short slices so stop() returns promptly even with a long
    // poll interval.
    let slice = interval
        .min(Duration::from_millis(20))
        .max(Duration::from_millis(1));
    let mut since_poll = interval; // poll immediately on the first pass
    while !stop.load(Ordering::SeqCst) {
        if since_poll >= current_interval {
            since_poll = Duration::ZERO;
            let current = signature_of(path);
            if current != last && current.is_some() {
                match apply(target, path) {
                    Ok(()) => {
                        stats.swaps.fetch_add(1, Ordering::SeqCst);
                        failures = 0;
                        // Only a *successful* apply advances the baseline:
                        // a failed file is retried (under backoff) so a
                        // torn write heals once the writer finishes.
                        last = current;
                    }
                    Err(ApplyError::Io) => {
                        stats.io_errors.fetch_add(1, Ordering::SeqCst);
                        failures = failures.saturating_add(1);
                    }
                    Err(ApplyError::Corrupt) => {
                        stats.corrupt_skipped.fetch_add(1, Ordering::SeqCst);
                        failures = failures.saturating_add(1);
                    }
                }
            }
            stats.polls.fetch_add(1, Ordering::SeqCst);
            current_interval = if failures == 0 {
                interval
            } else {
                backed_off(interval, failures, &mut rng)
            };
        }
        std::thread::sleep(slice);
        since_poll += slice;
    }
}

fn apply(target: &Target, path: &std::path::Path) -> Result<(), ApplyError> {
    let text = std::fs::read_to_string(path).map_err(|_| ApplyError::Io)?;
    let calibration = Calibration::from_text(&text).map_err(|_| ApplyError::Corrupt)?;
    target
        .swap_calibration(Arc::new(calibration))
        .map_err(|_| ApplyError::Corrupt)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(10);
        let mut rng = Rng::new(1);
        for failures in 0..8u32 {
            let cap_factor = 2u32.pow(failures.min(4));
            let delay = backed_off(base, failures, &mut rng);
            assert!(delay >= base * cap_factor, "floor at {failures} failures");
            assert!(
                delay < base * cap_factor + base * cap_factor / 4 + Duration::from_micros(1),
                "ceiling at {failures} failures"
            );
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_path_seed() {
        let seed = fnv1a(b"/tmp/cal.txt");
        let run = || {
            let mut rng = Rng::new(seed);
            (0..5)
                .map(|f| backed_off(Duration::from_millis(3), f, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
