//! Host-speed reference: a fixed piece of the benchmark's own work, timed
//! next to the operations the benchmark measures.
//!
//! On a shared host the same single-threaded pass runs at one speed for
//! seconds, then 1.3–1.8× slower for seconds, as other tenants load the
//! physical cores; a whole 20-second run can fall in either state. The
//! reference is compute-bound, high-ILP work (independent multiply-xorshift
//! chains and a 16-lane multiply-add over 256 KiB), the kind of work the
//! compressor's walk and entropy stages do, so it slows by about the same
//! factor. Every timing the benchmark reports is multiplied by a factor
//! `NOMINAL_S / reference time`, which puts it at the speed the
//! calibration host has when it is not contended: the factor taken just
//! before the operation where operations are short and single-threaded,
//! the run's median factor where they are long, parallel or served by
//! another process (see each workload). The reference is written here, so
//! no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference run takes on the uncontended 2-vCPU AVX2 VM the
/// bounds were calibrated on.
pub const NOMINAL_S: f64 = 72.4e-6;

const SAMPLES: usize = 1 << 16;
const CHAIN_STEPS: usize = 20_000;
const DOT_ROUNDS: usize = 4;
const TIMINGS_PER_SCALE: usize = 3;

pub struct Reference {
    data: Vec<f32>,
    /// Every scale measured, for the stamp.
    scales: Vec<f64>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            data: (0..SAMPLES).map(|i| (i % 1000) as f32 * 1e-3).collect(),
            scales: Vec::new(),
        }
    }

    /// Seconds the reference work takes on the host right now.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        let mut h = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..CHAIN_STEPS {
            for x in h.iter_mut() {
                *x = (*x ^ (*x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            }
        }
        black_box(h);
        let mut acc = [0.0f32; 16];
        for _ in 0..DOT_ROUNDS {
            for c in black_box(&self.data).chunks_exact(16) {
                for k in 0..16 {
                    acc[k] += c[k] * c[k];
                }
            }
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }

    /// The best of a few back-to-back runs, so an interrupt or a
    /// preemption inside one run does not count.
    fn best_time(&self) -> f64 {
        (0..TIMINGS_PER_SCALE)
            .map(|_| self.time())
            .fold(f64::INFINITY, f64::min)
    }

    /// The factor that takes a time measured now to the calibration host's
    /// uncontended speed.
    pub fn scale(&mut self) -> f64 {
        let s = NOMINAL_S / self.best_time();
        self.scales.push(s);
        s
    }

    /// The same for work spread over `threads` threads: the reference runs
    /// on that many threads at once, and the factor is their mean, since
    /// the host may slow one vCPU and not the other.
    pub fn scale_threads(&mut self, threads: usize) -> f64 {
        let this = &*self;
        let times: Vec<f64> = std::thread::scope(|sc| {
            let hs: Vec<_> = (0..threads)
                .map(|_| sc.spawn(|| this.best_time()))
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("reference thread"))
                .collect()
        });
        let s = times.iter().map(|t| NOMINAL_S / t).sum::<f64>() / threads as f64;
        self.scales.push(s);
        s
    }

    /// Stamp value: how many scales were taken and their spread.
    pub fn stamp(&self) -> String {
        let mut s = self.scales.clone();
        s.sort_by(f64::total_cmp);
        let q = |p: f64| {
            s.get(((s.len() as f64 - 1.0) * p) as usize)
                .copied()
                .unwrap_or(f64::NAN)
        };
        format!(
            "{{\"nominal_s\":{NOMINAL_S},\"measured\":{},\"scale_min\":{:.4},\"scale_p50\":{:.4},\"scale_max\":{:.4}}}",
            s.len(),
            q(0.0),
            q(0.5),
            q(1.0)
        )
    }
}
