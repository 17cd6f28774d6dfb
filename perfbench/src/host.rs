//! Host-speed probe: a fixed memory-bound kernel that belongs to the
//! benchmark, not to the program under test.
//!
//! On a shared host, other tenants' memory traffic slows every memory-bound
//! program, the simulator included, by up to 1.5x for tens of seconds to
//! minutes at a time; no choice of run length or order statistic removes a
//! slow state that outlasts the run. The probe measures the same slowdown
//! with code the program never runs. While a run measures, one probe
//! thread times a short kernel of random read-modify-writes over an 8 MiB
//! table, then sleeps [`PAUSE`], so it is busy about a sixth of the time
//! and takes a sample every ~12 ms. The run's host factor is the median
//! sample over [`NOMINAL_MS`]; the end-to-end host times are divided by
//! its square root (rates multiplied), see [`SENSITIVITY`]. A change to
//! the program moves them exactly as it moves raw time; a change of host
//! state moves both the workload and the probe and largely cancels.
//! The probe's own memory traffic slows the workload a little, the same on
//! every commit; its CPU time is left out of `cpu_s`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::procfs;
use crate::stats::median;

/// Table words: 8 MiB, larger than the per-core caches, like the
/// simulator's working set.
const WORDS: usize = 1 << 20;
/// Read-modify-writes per sample (about 2 ms on a 2.1 GHz Xeon), timed
/// in [`CHUNKS`] equal chunks.
const STEPS: u32 = 1 << 18;
/// Chunks per sample. A sample is its median chunk time times `CHUNKS`,
/// so a chunk during which the scheduler preempted the probe (the tile
/// threads of `tiles_paper` can) does not count, while a host slowdown,
/// which lasts far longer than a sample, slows every chunk.
const CHUNKS: u32 = 8;
/// Sleep between samples.
const PAUSE: Duration = Duration::from_millis(10);
/// Sample time of the nominal host, in milliseconds. Any fixed value
/// works for comparing commits on one machine; this one is the typical
/// sample of the 2-vCPU Xeon the bounds were set on, so normalised times
/// read close to raw ones there.
pub const NOMINAL_MS: f64 = 2.6;
/// How strongly a workload's host time follows the probe. Over 8 to 11
/// 25-second runs per workload, the slope of log(median repetition wall)
/// on log(factor) was 0.5 to 0.7 on the grids, 0.4 to 0.8 on
/// `tiles_paper` and 0.5 to 0.9 on `verify_acc`, and varied from one set
/// of runs to the next. The lowest of them never over-corrects.
pub const SENSITIVITY: f64 = 0.5;

/// One sample: a kernel pass over `table`, in milliseconds.
fn kernel_ms(table: &mut [u64]) -> f64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let chunks: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..STEPS / CHUNKS {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let i = (x >> 33) as usize & mask;
                let v = table[i];
                table[i] = if v & 1 == 0 {
                    v.rotate_left(7) ^ x
                } else {
                    v.wrapping_add(x >> 3)
                };
            }
            black_box(&*table);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&chunks) * f64::from(CHUNKS)
}

/// The probe thread of one run. Dropping it stops the thread and waits
/// for it, on every path out of the run.
#[derive(Debug)]
pub struct HostProbe {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<f64>>>,
}

impl HostProbe {
    pub fn start() -> HostProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (ready, started) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            procfs::exclude_this_thread(true);
            let mut table: Vec<u64> = (0..WORDS as u64).collect();
            let _ = ready.send(());
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                samples.push(kernel_ms(&mut table));
                std::thread::sleep(PAUSE);
            }
            procfs::exclude_this_thread(false);
            samples
        });
        // The workload starts once the probe's CPU is excluded and its
        // table is built.
        let _ = started.recv();
        HostProbe {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the thread and returns the run's samples.
    pub fn finish(mut self) -> HostSpeed {
        HostSpeed::of(self.join())
    }

    fn join(&mut self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .map(|t| t.join().expect("the probe thread does not panic"))
            .unwrap_or_default()
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        self.join();
    }
}

/// The host speed a run saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    /// Median probe sample, in milliseconds.
    pub median_ms: f64,
    /// Samples taken.
    pub samples: usize,
}

impl HostSpeed {
    pub fn of(samples: Vec<f64>) -> HostSpeed {
        HostSpeed {
            median_ms: median(&samples),
            samples: samples.len(),
        }
    }

    /// How much slower than nominal the host ran: >1 is slower.
    pub fn factor(&self) -> f64 {
        if self.median_ms > 0.0 {
            self.median_ms / NOMINAL_MS
        } else {
            1.0
        }
    }

    /// The correction host times are divided by and host rates multiplied
    /// by: the factor to the power [`SENSITIVITY`].
    pub fn correction(&self) -> f64 {
        self.factor().powf(SENSITIVITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_median_sample_over_nominal() {
        let speed = HostSpeed::of(vec![3.0, 4.0, 2.0, 10.0, 4.0]);
        assert_eq!((speed.median_ms, speed.samples), (4.0, 5));
        assert_eq!(speed.factor(), 4.0 / NOMINAL_MS);
        assert_eq!(HostSpeed::of(Vec::new()).factor(), 1.0);
    }

    #[test]
    fn the_probe_samples_until_finished() {
        let probe = HostProbe::start();
        std::thread::sleep(Duration::from_millis(100));
        let speed = probe.finish();
        assert!(speed.samples >= 1 && speed.median_ms > 0.0);
        // Dropping an unfinished probe stops its thread too.
        drop(HostProbe::start());
    }
}
