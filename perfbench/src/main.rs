//! Repository benchmark for the fixed-PSNR compressor.
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.py` builds this binary and the `fpsnr` CLI, then runs this binary
//! with the same arguments plus `--fpsnr <path>` and `--work-dir <dir>`.
//! Workloads: `fields_lowpsnr`, `fields_highpsnr`, `region_read`,
//! `snapshot_budget` (see `perfbench/README.md`). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

mod calib;
mod fields;
mod layers;
mod outcome;
mod region;
mod snapshot;
mod stats;
mod trace;

use outcome::Outcome;
use std::path::PathBuf;
use trace::Tracer;

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// End-to-end metrics, reported with `--trace 0`: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compress_mib_s", "MiB/s"),
    ("decompress_mib_s", "MiB/s"),
    ("ratio", "x"),
    ("psnr_dev_db", "dB"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("read_mib_s", "MiB/s"),
    ("peak_rss_mib", "MiB"),
    ("snapshot_s", "s"),
    ("budget_util", "fraction"),
    ("snapshot_min_psnr_db", "dB"),
];

/// Per-layer metrics, reported with `--trace 1`: (name, unit). A layer a
/// workload does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("c.walk.share", "fraction"),
    ("c.walk.mib_s", "MiB/s"),
    ("c.entropy.share", "fraction"),
    ("c.entropy.msym_s", "Msym/s"),
    ("c.bits_per_sample", "bits"),
    ("c.tail.share", "fraction"),
    ("c.tail.saved_frac", "fraction"),
    ("c.tail.stored_chunk_frac", "fraction"),
    ("c.crc.share", "fraction"),
    ("c.select_rest.share", "fraction"),
    ("c.predict_span.share", "fraction"),
    ("c.escape_frac", "fraction"),
    ("d.crc.share", "fraction"),
    ("d.tail.share", "fraction"),
    ("d.fused.share", "fraction"),
    ("d.entropy_probe.msym_s", "Msym/s"),
    ("d.recon_probe.mib_s", "MiB/s"),
    ("d.fused_gain", "x"),
    ("store.read_p50_us", "us"),
    ("store.read_p99_us", "us"),
    ("serve.overhead_p50_us", "us"),
    ("store.hit_rate", "fraction"),
    ("store.waits_frac", "fraction"),
    ("store.evictions_per_read", "count"),
    ("store.blocks_per_read", "count"),
    ("store.decode_amp", "x"),
    ("store.block_decode_us", "us"),
    ("store.open_ms", "ms"),
    ("alloc.pilot.share", "fraction"),
    ("alloc.solve.share", "fraction"),
    ("alloc.compress.share", "fraction"),
    ("alloc.passes_per_field", "count"),
    ("alloc.resolves", "count"),
    ("ratemodel.err_pct", "%"),
    ("alloc.speedup_2t", "x"),
    ("bound.derive_ns", "ns"),
    ("obs.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fpsnr: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        fpsnr: get("--fpsnr")?.into(),
        work_dir: get("--work-dir")?.into(),
    })
}

/// Peak resident set (VmHWM) of a process (`self` or a pid), MiB; NaN when
/// `/proc` does not say.
pub fn vm_hwm_mib(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Size of each CPU cache level of cpu0 as sysfs reports it.
fn cache_sizes() -> String {
    let mut parts = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        parts.push(format!(
            "\"L{}{}\":\"{}\"",
            level.trim(),
            match kind.trim() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            },
            size.trim()
        ));
    }
    parts.join(",")
}

fn env_stamp(out: &mut Outcome, args: &Args) {
    use losslesskit::simd;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.stamp(
        "env",
        format!(
            "{{\"simd_active\":\"{}\",\"simd_detected\":\"{}\",\"nproc\":{nproc},\"caches\":{{{}}},\
             \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"setup_reps\":{SETUP_REPS},\
             \"note\":\"inputs are cache-resident on hosts with a large L3; bytes-moved figures are \
computed from array sizes, not measured DRAM traffic\"}}",
            simd::active().name(),
            simd::detect().name(),
            cache_sizes(),
            args.workload,
            args.seed,
            args.seconds,
            args.trace
        ),
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 --fpsnr <path> --work-dir <dir>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: creating {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let mut out = Outcome::default();
    env_stamp(&mut out, &args);
    let mut tr = Tracer::new(args.trace);
    let ran = match args.workload.as_str() {
        "fields_lowpsnr" => {
            fields::run(&[20.0, 30.0], args.seed, args.seconds, &mut tr, &mut out);
            Ok(())
        }
        "fields_highpsnr" => {
            fields::run(&[100.0, 120.0], args.seed, args.seconds, &mut tr, &mut out);
            Ok(())
        }
        "region_read" => region::run(
            &args.fpsnr,
            &args.work_dir,
            args.seed,
            args.seconds,
            &mut tr,
            &mut out,
        ),
        "snapshot_budget" => snapshot::run(args.seed, args.seconds, &mut tr, &mut out),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    if !out.metrics.contains_key("peak_rss_mib") {
        out.set("peak_rss_mib", vm_hwm_mib("self"));
    }
    if args.trace {
        print!("{}", tr.summary());
        let path = args
            .work_dir
            .join(format!("trace_{}_seed{}.jsonl", args.workload, args.seed));
        match std::fs::write(&path, tr.to_jsonl()) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }

    for (k, v) in &out.stamp {
        println!("stamp {k} {v}");
    }
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut metrics = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        // An end-to-end metric is a positive measurement by construction;
        // anything else means the run did not measure what it reports.
        if !v.is_finite() || (!args.trace && v <= 0.0) {
            eprintln!("perfbench: metric {name} = {v}");
            correct = false;
        }
        let v = if v.is_finite() { v } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
