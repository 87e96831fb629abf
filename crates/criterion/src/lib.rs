//! # criterion (offline shim)
//!
//! The workspace builds with no network access, so the real `criterion`
//! crate cannot be fetched. This package keeps the *name* and the API
//! subset the `crates/bench/benches/*.rs` targets use — `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `Throughput`,
//! `BenchmarkId`, `criterion_group!`, `criterion_main!` — so those targets
//! compile and run unchanged under `cargo bench`.
//!
//! Measurement is intentionally simple: after a short calibration run, each
//! benchmark body is repeated enough times to fill a fixed measurement
//! window, and the mean wall-clock time per iteration is printed (with
//! throughput when the group declared one). There are no statistics,
//! no outlier rejection and no HTML reports — for publication-grade
//! numbers, run the dedicated experiment bins in `crates/bench/src/bin/`
//! several times and aggregate externally.

#![warn(rust_2018_idioms)]

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Top-level benchmark context, passed to every `criterion_group!` target.
pub struct Criterion {
    measurement_window: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measurement_window: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Run one stand-alone benchmark outside any group (no throughput).
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        BenchmarkGroup {
            window: self.measurement_window,
            throughput: None,
        }
        .bench_function(id, f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("\n{name}");
        BenchmarkGroup {
            window: self.measurement_window,
            throughput: None,
        }
    }
}

/// Declared work-per-iteration, used to derive throughput from the mean
/// iteration time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Identifier made of a function name and a parameter.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), parameter))
    }

    /// Identifier made of the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// A named group of benchmarks sharing a throughput declaration.
pub struct BenchmarkGroup {
    window: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Accepted for API compatibility; the shim sizes runs by wall-clock
    /// window rather than sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Declare the work performed by one iteration of every benchmark in
    /// this group.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher::new(self.window);
        f(&mut b);
        b.report(&id.into().0, self.throughput);
        self
    }

    /// Run one benchmark parameterised by an input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = Bencher::new(self.window);
        f(&mut b, input);
        b.report(&id.0, self.throughput);
        self
    }

    /// End the group (printing already happened per-benchmark).
    pub fn finish(self) {}
}

/// Timer handed to the benchmark body; call [`Bencher::iter`] exactly once.
pub struct Bencher {
    window: Duration,
    mean_ns: f64,
    iters: u64,
}

impl Bencher {
    fn new(window: Duration) -> Self {
        Bencher {
            window,
            mean_ns: f64::NAN,
            iters: 0,
        }
    }

    /// Measure a closure: calibrate with one run, size the batch to the
    /// measurement window, then time the batch.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let t0 = Instant::now();
        std_black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let n = (self.window.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let t1 = Instant::now();
        for _ in 0..n {
            std_black_box(f());
        }
        let total = t1.elapsed();
        self.mean_ns = total.as_nanos() as f64 / n as f64;
        self.iters = n;
    }

    fn report(&self, name: &str, throughput: Option<Throughput>) {
        if self.iters == 0 {
            println!("  {name:<40} (no measurement)");
            return;
        }
        let time = fmt_time(self.mean_ns);
        let rate = match throughput {
            Some(Throughput::Bytes(b)) => {
                format!("  {:>10.1} MiB/s", b as f64 / (self.mean_ns / 1e9) / (1u64 << 20) as f64)
            }
            Some(Throughput::Elements(e)) => {
                format!("  {:>10.1} Melem/s", e as f64 / (self.mean_ns / 1e9) / 1e6)
            }
            None => String::new(),
        };
        println!("  {name:<40} {time:>12}/iter{rate}   ({} iters)", self.iters);
    }
}

fn fmt_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Bundle benchmark functions into a runnable group, as the real crate
/// does. The configuration-customising form is not supported.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::new(Duration::from_millis(5));
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(b.iters >= 1);
        assert!(b.mean_ns.is_finite() && b.mean_ns > 0.0);
    }

    #[test]
    fn group_api_chains() {
        let mut c = Criterion {
            measurement_window: Duration::from_millis(2),
        };
        let mut g = c.benchmark_group("shim_smoke");
        g.sample_size(10);
        g.throughput(Throughput::Bytes(1024));
        g.bench_function("add", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::from_parameter(4), &4u32, |b, &x| {
            b.iter(|| x * x)
        });
        g.finish();
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::new("f", 8).0, "f/8");
        assert_eq!(BenchmarkId::from_parameter("name").0, "name");
        assert_eq!(BenchmarkId::from("plain").0, "plain");
    }

    #[test]
    fn time_formatting_scales() {
        assert_eq!(fmt_time(12.0), "12 ns");
        assert_eq!(fmt_time(1.2e4), "12.000 us");
        assert_eq!(fmt_time(1.2e7), "12.000 ms");
        assert_eq!(fmt_time(1.2e10), "12.000 s");
    }
}
