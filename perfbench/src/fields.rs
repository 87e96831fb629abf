//! `fields_lowpsnr` and `fields_highpsnr`: whole-field fixed-PSNR round
//! trips over the NYX and Hurricane snapshots.
//!
//! One caller, closed loop. Each op is one field at one target:
//! `compress_fixed_psnr_only` with the default options (1 thread,
//! monolithic container, Lorenzo¹, adaptive intervals, bake-off tail),
//! then `decompress_with_threads(…, 1)`, then the output checks, then a
//! repeat read that must give the same samples. A pass runs every field at
//! every target; the first pass is warm-up. Every time is scaled by the
//! host-speed reference taken just before its op (see `calib`).

use crate::calib::Reference;
use crate::layers::{LayerTotals, OpRun};
use crate::outcome::Outcome;
use crate::stats::{check_bound, dims, median, percentile, psnr, Reads, MIB};
use crate::trace::Tracer;
use crate::SETUP_REPS;
use datagen::{generate, DatasetId, NamedField, Resolution};
use fpsnr_core::bound::ebrel_for_psnr;
use fpsnr_core::fixed_psnr::{compress_fixed_psnr_only, FixedPsnrOptions};
use std::time::{Duration, Instant};

/// Whole-field reads per op: the checked read and one repeat, so a run
/// holds enough reads for a p99.
const READS_PER_OP: usize = 2;

/// The 6 NYX and 13 Hurricane fields at the Default tier.
pub fn corpus(seed: u64) -> Vec<NamedField> {
    let mut fields = generate(DatasetId::Nyx, Resolution::Default, seed);
    fields.extend(generate(DatasetId::Hurricane, Resolution::Default, seed));
    fields
}

/// What one op produced, kept from the first pass so later passes can be
/// checked against it.
#[derive(Clone, Copy, PartialEq)]
struct OpResult {
    container_bytes: usize,
    psnr: f64,
}

/// Per-pass accumulators: host-scaled seconds, and the unscaled compress
/// and decompress seconds for the stamp.
#[derive(Default)]
struct Pass {
    compress_s: f64,
    decompress_s: f64,
    raw_compress_s: f64,
    raw_decompress_s: f64,
}

struct Ctx<'a> {
    opts: FixedPsnrOptions,
    tr: &'a mut Tracer,
    layers: LayerTotals,
    reads: Reads,
}

pub fn run(targets: &[f64], seed: u64, seconds: f64, tr: &mut Tracer, out: &mut Outcome) {
    let mut reference = Reference::new();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut fields = Vec::new();
    for _ in 0..SETUP_REPS {
        let scale = reference.scale();
        let t0 = Instant::now();
        fields = corpus(seed);
        setup.push(t0.elapsed().as_secs_f64() * scale);
    }
    let ranges: Vec<f64> = fields.iter().map(|f| f.data.stats().range()).collect();
    let raw_pass: usize = fields.iter().map(|f| f.data.len() * 4).sum::<usize>() * targets.len();
    out.stamp(
        "inputs",
        format!(
            "{{\"fields\":{},\"shapes\":[{}],\"targets_db\":{:?},\"raw_bytes_per_pass\":{raw_pass}}}",
            fields.len(),
            fields
                .iter()
                .map(|f| format!("\"{}:{}\"", f.name, dims(f.data.shape())))
                .collect::<Vec<_>>()
                .join(","),
            targets
        ),
    );

    let mut ctx = Ctx {
        opts: FixedPsnrOptions::default(),
        tr,
        layers: LayerTotals::default(),
        reads: Reads::default(),
    };
    let mut first: Vec<Option<OpResult>> = vec![None; fields.len() * targets.len()];
    let (mut pass_c, mut pass_d, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_c, mut raw_d) = (Vec::new(), Vec::new());
    let window = Duration::from_secs_f64(seconds);
    let mut measure_start = Instant::now();
    let mut op = 0u64;
    for pass_no in 0.. {
        let measuring = pass_no > 0;
        if pass_no == 1 {
            ctx.tr.clear();
            measure_start = Instant::now();
        } else if pass_no > 1 && measure_start.elapsed() >= window {
            break;
        }
        let mut pass = Pass::default();
        for (fi, f) in fields.iter().enumerate() {
            for (ti, &target) in targets.iter().enumerate() {
                op += 1;
                let slot = fi * targets.len() + ti;
                let eb_abs = ebrel_for_psnr(target) * ranges[fi];
                let scale = reference.scale();
                let root = ctx.tr.begin("op.field_target", None, op);
                let result = one_op(
                    &mut ctx,
                    &mut pass,
                    (root, op, scale),
                    &f.data,
                    target,
                    eb_abs,
                    measuring,
                );
                ctx.tr.end(root);
                let result = result.and_then(|r| match first[slot] {
                    None => {
                        first[slot] = Some(r);
                        Ok(())
                    }
                    Some(prev) if prev == r => Ok(()),
                    Some(prev) => Err(format!(
                        "not deterministic: {} bytes / {} dB, earlier {} bytes / {} dB",
                        r.container_bytes, r.psnr, prev.container_bytes, prev.psnr
                    )),
                });
                out.record(&format!("{} @ {target} dB", f.name), result);
            }
        }
        if measuring {
            pass_c.push(raw_pass as f64 / MIB / pass.compress_s);
            pass_d.push((READS_PER_OP * raw_pass) as f64 / MIB / pass.decompress_s);
            pass_s.push(pass.compress_s);
            raw_c.push(raw_pass as f64 / MIB / pass.raw_compress_s);
            raw_d.push((READS_PER_OP * raw_pass) as f64 / MIB / pass.raw_decompress_s);
        }
    }

    // Deterministic figures, from the ops that succeeded.
    let (mut raw, mut packed, mut dev, mut util, mut min_psnr, mut n) =
        (0.0, 0.0, 0.0, 0.0, f64::INFINITY, 0.0);
    for (slot, r) in first.iter().enumerate() {
        let Some(r) = r else { continue };
        let target = targets[slot % targets.len()];
        raw += (fields[slot / targets.len()].data.len() * 4) as f64;
        packed += r.container_bytes as f64;
        dev += (r.psnr - target).abs();
        util += 10f64.powf((target - r.psnr) / 10.0);
        min_psnr = min_psnr.min(r.psnr);
        n += 1.0;
    }
    let lat = &ctx.reads.lat;
    out.stamp("host", reference.stamp());
    out.stamp(
        "samples",
        format!(
            "{{\"measured_passes\":{},\"reads\":{},\"reads_beyond_p99\":{},\
             \"pass_compress_mib_s\":{:.1?},\"pass_decompress_mib_s\":{:.1?},\
             \"unscaled_compress_mib_s\":{:.1},\"unscaled_decompress_mib_s\":{:.1}}}",
            pass_c.len(),
            lat.len(),
            lat.len() / 100,
            pass_c,
            pass_d,
            median(&raw_c),
            median(&raw_d)
        ),
    );
    out.set("setup_s", median(&setup));
    out.set("compress_mib_s", median(&pass_c));
    out.set("decompress_mib_s", median(&pass_d));
    out.set("ratio", raw / packed);
    out.set("psnr_dev_db", dev / n);
    out.set("read_p50_us", median(lat) * 1e6);
    out.set("read_p99_us", percentile(lat, 0.99) * 1e6);
    out.set("read_mib_s", median(&ctx.reads.mib_s));
    out.set("snapshot_s", median(&pass_s));
    out.set("budget_util", util / n);
    out.set("snapshot_min_psnr_db", min_psnr);
    if ctx.tr.enabled() {
        println!("{}", ctx.layers.render(&format!("layers @ {targets:?} dB")));
        for (name, v) in ctx.layers.metrics() {
            out.set(name, v);
        }
    }
}

/// Compress, decompress and check one field at one target; in the traced
/// run, replay its layers too.
#[allow(clippy::too_many_arguments)]
fn one_op(
    ctx: &mut Ctx<'_>,
    pass: &mut Pass,
    (root, op, scale): (Option<usize>, u64, f64),
    field: &ndfield::Field<f32>,
    target: f64,
    eb_abs: f64,
    measuring: bool,
) -> Result<OpResult, String> {
    let tr = &mut *ctx.tr;
    let opts = ctx.opts;
    let (bytes, compress_s) = tr.time(
        "fpsnr-core::fixed_psnr::compress_fixed_psnr_only",
        root,
        op,
        || compress_fixed_psnr_only(field, target, &opts),
    );
    pass.compress_s += compress_s * scale;
    pass.raw_compress_s += compress_s;
    let bytes = bytes.map_err(|e| format!("compress: {e}"))?;
    let (decoded, decompress_s) = tr.time("szlike::decompress_with_threads", root, op, || {
        szlike::decompress_with_threads::<f32>(&bytes, 1)
    });
    pass.decompress_s += decompress_s * scale;
    pass.raw_decompress_s += decompress_s;
    if measuring {
        ctx.reads.push(field.len() * 4, decompress_s * scale);
    }
    let decoded = decoded.map_err(|e| format!("decompress: {e}"))?;
    let (achieved, _) = tr.time("check", root, op, || -> Result<f64, String> {
        check_bound(field, &decoded, eb_abs)?;
        let p = psnr(field, &decoded);
        if p.is_finite() {
            Ok(p)
        } else {
            Err(format!("achieved PSNR {p} is not finite"))
        }
    });
    let achieved = achieved?;
    for _ in 1..READS_PER_OP {
        let (again, s) = tr.time("szlike::decompress_with_threads(repeat)", root, op, || {
            szlike::decompress_with_threads::<f32>(&bytes, 1)
        });
        pass.decompress_s += s * scale;
        pass.raw_decompress_s += s;
        if measuring {
            ctx.reads.push(field.len() * 4, s * scale);
        }
        let again = again.map_err(|e| format!("repeat decompress: {e}"))?;
        if again
            .as_slice()
            .iter()
            .zip(decoded.as_slice())
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err("repeat read gave different samples".into());
        }
    }
    if tr.enabled() && measuring {
        let run = OpRun {
            field,
            target,
            container: &bytes,
            compress_s,
            decoded: &decoded,
            decompress_s,
        };
        ctx.layers
            .replay(tr, root, op, &run, &opts)
            .map_err(|e| format!("replay: {e}"))?;
    }
    Ok(OpResult {
        container_bytes: bytes.len(),
        psnr: achieved,
    })
}
