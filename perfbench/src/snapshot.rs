//! `snapshot_budget`: one byte budget across the 79-field ATM snapshot.
//!
//! `allocate_snapshot` with budget raw/16, the max-min PSNR objective and
//! 2 threads, closed loop, one caller; the first snapshot is warm-up.
//! Times are scaled by the host-speed reference (see `calib`): each field's
//! reads by a factor taken just before them, and the median snapshot time
//! by the median of 2-thread factors taken before and after every snapshot.
//! Every field's container is decoded and checked against the bound its
//! assigned PSNR implies; a `FieldFailure` or a field compressed more than
//! twice counts as a failure.

use crate::calib::Reference;
use crate::layers::{LayerTotals, OpRun};
use crate::outcome::Outcome;
use crate::stats::{check_bound, median, percentile, psnr, ratio, Reads, MIB};
use crate::trace::Tracer;
use crate::SETUP_REPS;
use datagen::{generate, DatasetId, Resolution};
use fpsnr_core::alloc::{allocate_snapshot, solve_min_psnr, AllocOptions, AnyField, SnapshotField};
use fpsnr_core::bound::ebrel_for_psnr;
use fpsnr_core::fixed_psnr::{compress_fixed_psnr_only, FixedPsnrOptions};
use fpsnr_core::SnapshotAllocation;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use szlike::{ErrorBound, RateModel, SzConfig};

pub const BUDGET_FACTOR: u64 = 16;
pub const THREADS: usize = 2;
const MAX_PASSES: u32 = 2;
/// Reads of every field's container per snapshot: the checked read and
/// three repeats, so a run holds enough reads for a steady p99.
const READS_PER_FIELD: u64 = 4;

fn f32_of(f: &SnapshotField) -> &ndfield::Field<f32> {
    match &f.data {
        AnyField::F32(x) => x,
        AnyField::F64(_) => unreachable!("the ATM registry is f32"),
    }
}

/// Per-snapshot figures from one checked allocation.
struct Checked {
    total_bytes: u64,
    decompress_s: f64,
    /// |band PSNR − assigned PSNR| for every band of every allocated field.
    band_devs: Vec<f64>,
}

/// Rows per band of a 2-D field in the band-accuracy figure.
const BAND_ROWS: usize = 15;

/// |PSNR − target| of each band of `BAND_ROWS` rows, every band's PSNR
/// taken with the whole field's value range: the accuracy a reader of a
/// row band sees.
fn band_devs(
    orig: &ndfield::Field<f32>,
    got: &ndfield::Field<f32>,
    target: f64,
    out: &mut Vec<f64>,
) {
    let vr = orig.value_range();
    let cols = *orig.shape().dims().last().expect("a shape has an axis");
    for (a, b) in orig
        .as_slice()
        .chunks(BAND_ROWS * cols)
        .zip(got.as_slice().chunks(BAND_ROWS * cols))
    {
        let (mut sse, mut n) = (0.0f64, 0usize);
        for (&x, &y) in a.iter().zip(b) {
            if x.is_finite() {
                let d = x as f64 - y as f64;
                sse += d * d;
                n += 1;
            }
        }
        let p = fpsnr_metrics::psnr::psnr_from_mse(sse / n.max(1) as f64, vr);
        if p.is_finite() {
            out.push((p - target).abs());
        }
    }
}

/// Check one allocation; every field is one op. Returns the host-scaled
/// decode time.
fn check(
    fields: &[SnapshotField],
    alloc: &SnapshotAllocation,
    opts: &AllocOptions,
    reads: Option<&mut Reads>,
    reference: &mut Reference,
    out: &mut Outcome,
) -> Checked {
    let mut local = Reads::default();
    let mut bands = Vec::new();
    for (f, run) in fields.iter().zip(&alloc.fields) {
        let result = (|| -> Result<(), String> {
            if let Some(fail) = &run.failure {
                return Err(fail.to_string());
            }
            if run.stat.passes > MAX_PASSES {
                return Err(format!("{} compression passes", run.stat.passes));
            }
            let bytes = run.bytes.as_ref().ok_or("no container")?;
            let bytes_out = f.data.raw_bytes() as usize;
            let mut read = || -> Result<ndfield::Field<f32>, String> {
                let scale = reference.scale();
                let t0 = Instant::now();
                let got = szlike::decompress_with_threads::<f32>(bytes, 1);
                local.push(bytes_out, t0.elapsed().as_secs_f64() * scale);
                got.map_err(|e| e.to_string())
            };
            let got = read()?;
            for _ in 1..READS_PER_FIELD {
                let again = read()?;
                let same = again
                    .as_slice()
                    .iter()
                    .zip(got.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    return Err("repeat read gave different samples".into());
                }
            }
            let field = f32_of(f);
            let target = if run.stat.assigned_psnr.is_finite() {
                run.stat.assigned_psnr
            } else {
                opts.psnr_lo
            };
            check_bound(field, &got, ebrel_for_psnr(target) * field.stats().range())?;
            let p = psnr(field, &got);
            if !run.stat.quarantined {
                if !p.is_finite() {
                    return Err(format!("achieved PSNR {p} is not finite"));
                }
                band_devs(field, &got, target, &mut bands);
            }
            Ok(())
        })();
        out.record(&format!("snapshot field {}", f.name), result);
    }
    let decompress_s = local.lat.iter().sum();
    if let Some(r) = reads {
        r.extend(local);
    }
    Checked {
        total_bytes: alloc.summary.total_bytes,
        decompress_s,
        band_devs: bands,
    }
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut reference = Reference::new();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut fields: Vec<SnapshotField> = Vec::new();
    for _ in 0..SETUP_REPS {
        let scale = reference.scale();
        let t0 = Instant::now();
        fields = generate(DatasetId::Atm, Resolution::Default, seed)
            .into_iter()
            .map(|nf| SnapshotField::f32(nf.name, nf.data))
            .collect();
        setup.push(t0.elapsed().as_secs_f64() * scale);
    }
    let raw: u64 = fields.iter().map(|f| f.data.raw_bytes()).sum();
    let opts = AllocOptions {
        threads: THREADS,
        ..AllocOptions::new(raw / BUDGET_FACTOR)
    };
    out.stamp(
        "inputs",
        format!(
            "{{\"fields\":{},\"shape\":\"{}\",\"raw_bytes\":{raw},\"budget_bytes\":{},\"threads\":{THREADS}}}",
            fields.len(),
            crate::stats::dims(f32_of(&fields[0]).shape()),
            opts.budget_bytes
        ),
    );

    let (mut snap_s, mut snap_scale) = (Vec::new(), Vec::new());
    let mut dec_mib_s = Vec::new();
    let mut reads = Reads::default();
    let mut expected_total: Option<u64> = None;
    let mut band_devs = Vec::new();
    let mut last: Option<SnapshotAllocation> = None;
    let mut traced = TracedAlloc::default();
    let window = Duration::from_secs_f64(seconds);
    let mut measure_start = Instant::now();
    for iter in 0u64.. {
        let measuring = iter > 0;
        if iter == 1 {
            tr.clear();
            measure_start = Instant::now();
        } else if iter > 1 && measure_start.elapsed() >= window {
            break;
        }
        let before = reference.scale_threads(THREADS);
        let root = tr.begin("op.snapshot", None, iter);
        let (alloc, s) = tr.time("fpsnr-core::alloc::allocate_snapshot", root, iter, || {
            allocate_snapshot(&fields, &opts)
        });
        let after = reference.scale_threads(THREADS);
        let alloc = match alloc {
            Ok(a) => a,
            Err(e) => {
                out.record("allocate_snapshot", Err(e.to_string()));
                tr.end(root);
                continue;
            }
        };
        let checked = check(
            &fields,
            &alloc,
            &opts,
            measuring.then_some(&mut reads),
            &mut reference,
            out,
        );
        out.record(
            "snapshot determinism",
            match expected_total {
                Some(t) if t != checked.total_bytes => Err(format!(
                    "total {} bytes, an earlier snapshot {t}",
                    checked.total_bytes
                )),
                _ => Ok(()),
            },
        );
        expected_total = Some(checked.total_bytes);
        band_devs = checked.band_devs;
        if measuring {
            snap_s.push(s);
            snap_scale.extend([before, after]);
            dec_mib_s.push((READS_PER_FIELD * raw) as f64 / MIB / checked.decompress_s);
            if tr.enabled() {
                let r = traced.measure(tr, root, iter, &fields, &opts, &alloc);
                out.record("traced replay", r);
            }
        }
        tr.end(root);
        last = Some(alloc);
    }

    let alloc = last.ok_or("no snapshot completed")?;
    let sum = &alloc.summary;
    let allocated: Vec<_> = alloc
        .fields
        .iter()
        .filter(|r| !r.stat.quarantined && r.stat.achieved_psnr.is_finite())
        .collect();
    // Per band and a median: a few fields miss Eq. 6 by 1–6 dB and which
    // ones do changes with the seed, so the per-field mean swings by ±30%
    // between seeds; the per-field median is a few hundredths of a dB and
    // swings as much. The median band deviation holds.
    let devs: Vec<f64> = allocated
        .iter()
        .map(|r| (r.stat.achieved_psnr - r.stat.assigned_psnr).abs())
        .collect();
    let dev = median(&band_devs);
    let snapshot_s = median(&snap_s) * median(&snap_scale);
    out.stamp("host", reference.stamp());
    out.stamp(
        "samples",
        format!(
            "{{\"measured_snapshots\":{},\"unscaled_snapshot_s\":{:.3?},\"snapshot_scale\":{:.3?},\"reads\":{},\"reads_beyond_p99\":{},\"total_passes\":{},\"resolves\":{},\"field_psnr_dev_db\":{{\"mean\":{},\"median\":{}}}}}",
            snap_s.len(),
            snap_s,
            snap_scale,
            reads.lat.len(),
            reads.lat.len() / 100,
            sum.total_passes,
            alloc.resolves,
            devs.iter().sum::<f64>() / devs.len() as f64,
            median(&devs)
        ),
    );
    out.set("setup_s", median(&setup));
    out.set("compress_mib_s", raw as f64 / MIB / snapshot_s);
    out.set("decompress_mib_s", median(&dec_mib_s));
    out.set("ratio", raw as f64 / sum.total_bytes as f64);
    out.set("psnr_dev_db", dev);
    out.set("read_p50_us", median(&reads.lat) * 1e6);
    out.set("read_p99_us", percentile(&reads.lat, 0.99) * 1e6);
    out.set("read_mib_s", median(&reads.mib_s));
    out.set("snapshot_s", snapshot_s);
    out.set("budget_util", sum.utilization);
    out.set("snapshot_min_psnr_db", sum.min_achieved_psnr);

    if tr.enabled() {
        let err_pct = allocated
            .iter()
            .map(|r| {
                ratio(
                    (r.stat.predicted_bytes - r.stat.achieved_bytes as f64).abs(),
                    r.stat.achieved_bytes as f64,
                )
            })
            .sum::<f64>()
            / allocated.len() as f64
            * 100.0;
        let snap_total: f64 = snap_s.iter().sum();
        let m = [
            ("alloc.pilot.share", ratio(traced.pilot_s, snap_total)),
            ("alloc.solve.share", ratio(traced.solve_s, snap_total)),
            (
                "alloc.compress.share",
                ratio(snap_total - traced.pilot_s - traced.solve_s, snap_total),
            ),
            (
                "alloc.passes_per_field",
                sum.total_passes as f64 / sum.n_fields as f64,
            ),
            ("alloc.resolves", alloc.resolves as f64),
            ("ratemodel.err_pct", err_pct),
            (
                "alloc.speedup_2t",
                ratio(median(&traced.one_thread_s), median(&snap_s)),
            ),
        ];
        println!("allocation layers over {} measured snapshots", snap_s.len());
        for (name, v) in m {
            println!("  {name:<26} {v:>12.4}");
            out.set(name, v);
        }
        println!(
            "{}",
            traced
                .layers
                .render("per-field layers at the assigned targets (1 thread)")
        );
        for (name, v) in traced.layers.metrics() {
            out.set(name, v);
        }
    }
    Ok(())
}

/// Layer replays of the traced run, summed over measured snapshots.
#[derive(Default)]
struct TracedAlloc {
    pilot_s: f64,
    solve_s: f64,
    one_thread_s: Vec<f64>,
    layers: LayerTotals,
}

impl TracedAlloc {
    fn measure(
        &mut self,
        tr: &mut Tracer,
        root: Option<usize>,
        op: u64,
        fields: &[SnapshotField],
        opts: &AllocOptions,
        alloc: &SnapshotAllocation,
    ) -> Result<(), String> {
        // Phase 1 again: every pilot and its rate curve, on the same
        // number of threads. The pilot ignores the bound; 60 dB only
        // materializes the config, as the allocator does.
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(ebrel_for_psnr(60.0)))
            .with_auto_intervals(opts.compress.auto_intervals)
            .with_quant_bins(opts.compress.quant_bins)
            .with_lossless(opts.compress.lossless)
            .with_predictor(opts.compress.predictor);
        let next = AtomicUsize::new(0);
        let (curves, pilot_s) = tr.time("szlike::ratemodel::RateModel::pilot", root, op, || {
            let mut slots: Vec<Option<szlike::RateCurve>> = vec![None; fields.len()];
            let parts: Vec<Vec<(usize, Option<szlike::RateCurve>)>> = std::thread::scope(|sc| {
                let hs: Vec<_> = (0..THREADS)
                    .map(|_| {
                        sc.spawn(|| {
                            let mut got = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= fields.len() {
                                    return got;
                                }
                                let vr = fields[i].data.value_range();
                                if !(vr.is_finite() && vr > 0.0) {
                                    continue; // quarantined: no rate curve
                                }
                                let c = RateModel::pilot(f32_of(&fields[i]), &cfg).ok().map(|m| {
                                    m.curve(opts.psnr_lo, opts.psnr_step, opts.psnr_points, 1.0)
                                });
                                got.push((i, c));
                            }
                        })
                    })
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().expect("pilot thread"))
                    .collect()
            });
            for (i, c) in parts.into_iter().flatten() {
                slots[i] = c;
            }
            slots.into_iter().flatten().collect::<Vec<_>>()
        });
        let quarantined: u64 = alloc
            .fields
            .iter()
            .filter(|r| r.stat.quarantined)
            .map(|r| r.stat.achieved_bytes)
            .sum();
        let budget = opts.budget_bytes.saturating_sub(quarantined) as f64;
        let (j, solve_s) = tr.time("fpsnr-core::alloc::solve_min_psnr", root, op, || {
            solve_min_psnr(&curves, budget)
        });
        let first_assigned = opts.psnr_lo + opts.psnr_step * j as f64;
        let differs = alloc
            .fields
            .iter()
            .any(|r| !r.stat.quarantined && r.stat.assigned_psnr != first_assigned);
        if alloc.resolves == 0 && differs {
            return Err(format!(
                "replayed solve assigns {first_assigned} dB, the allocator something else"
            ));
        }

        // The same snapshot on one thread: the field-parallel speed-up, and
        // the same bytes.
        let one = AllocOptions {
            threads: 1,
            ..*opts
        };
        let (single, s1) = tr.time(
            "fpsnr-core::alloc::allocate_snapshot(1 thread)",
            root,
            op,
            || allocate_snapshot(fields, &one),
        );
        let single = single.map_err(|e| e.to_string())?;
        if single
            .fields
            .iter()
            .zip(&alloc.fields)
            .any(|(a, b)| a.bytes != b.bytes)
        {
            return Err("one-thread snapshot bytes differ from the two-thread run".into());
        }

        // Per-field layer chains at the assigned targets, single-threaded.
        let copts = FixedPsnrOptions::default();
        for (f, run) in fields.iter().zip(&alloc.fields) {
            if run.stat.quarantined {
                continue;
            }
            let field = f32_of(f);
            let target = run.stat.assigned_psnr;
            let (bytes, compress_s) = tr.time(
                "fpsnr-core::fixed_psnr::compress_fixed_psnr_only",
                root,
                op,
                || compress_fixed_psnr_only(field, target, &copts),
            );
            let bytes = bytes.map_err(|e| e.to_string())?;
            if Some(&bytes) != run.bytes.as_ref() {
                return Err(format!(
                    "{}: single-field compress differs from the snapshot's",
                    f.name
                ));
            }
            let (decoded, decompress_s) =
                tr.time("szlike::decompress_with_threads", root, op, || {
                    szlike::decompress_with_threads::<f32>(&bytes, 1)
                });
            let decoded = decoded.map_err(|e| e.to_string())?;
            let r = OpRun {
                field,
                target,
                container: &bytes,
                compress_s,
                decoded: &decoded,
                decompress_s,
            };
            self.layers
                .replay(tr, root, op, &r, &copts)
                .map_err(|e| format!("{}: {e}", f.name))?;
        }
        self.pilot_s += pilot_s;
        self.solve_s += solve_s;
        self.one_thread_s.push(s1);
        Ok(())
    }
}
