//! Per-layer replay of one fixed-PSNR compression and its decode.
//!
//! The monolithic SZ container is produced by a chain of public stages:
//! interval and predictor selection (no public entry point), the fused
//! walk (`szlike::kernels::walk_fused`), the entropy stage
//! (`losslesskit::freq::count_dense` + `HuffmanCodec::from_counts` +
//! `losslesskit::mshuf::encode`), the lossless tail
//! (`losslesskit::bakeoff::compress_with_stats`) and the CRC trailer
//! (`losslesskit::crc32`). The traced run calls each stage again on the
//! same field, with the bound and bin count the real run reported in its
//! `CompressionDetail`, and times it. Selection and framing are what is
//! left of the end-to-end compress time after the four replays.
//!
//! Every replay is checked against the real container: table, code-stream
//! and body byte counts must equal `CompressionDetail`, the tail output
//! must be the container's payload, the decode probes must give back the
//! walk's codes and the decompressed samples bit for bit. A mismatch is an
//! error, so the layer figures always describe the work the end-to-end
//! run did.

use crate::stats::{median, ratio, MIB};
use crate::trace::Tracer;
use fpsnr_core::bound::ebrel_for_psnr;
use fpsnr_core::fixed_psnr::{compress_fixed_psnr_only, FixedPsnrOptions};
use losslesskit::bakeoff::{self, Backend};
use losslesskit::crc32::crc32;
use losslesskit::huffman::HuffmanCodec;
use losslesskit::{freq, mshuf, varint};
use ndfield::{Field, Scalar};
use std::hint::black_box;
use std::time::Instant;
use szlike::kernels::{reconstruct_fused, walk_fused};
use szlike::{ErrorBound, EscapeCoding, PredictorModel, SzConfig};

/// Interleaved Huffman streams the monolithic container writes.
const HUFF_STREAMS: usize = 4;

/// Calls of `ebrel_for_psnr` per timing sample: one call is far below the
/// clock's resolution.
const DERIVE_REPS: u32 = 4096;

/// Layer times and work counts summed over every replayed op.
#[derive(Default)]
pub struct LayerTotals {
    ops: u64,
    raw_bytes: f64,
    samples: f64,
    compress_s: f64,
    walk_s: f64,
    entropy_s: f64,
    tail_s: f64,
    crc_s: f64,
    code_stream_bytes: f64,
    escapes: f64,
    tail_in: f64,
    tail_saved: f64,
    chunks: f64,
    stored_chunks: f64,
    armed_compress_s: f64,
    unarmed_compress_s: f64,
    predict_span_s: f64,
    derive_ns: Vec<f64>,
    decompress_s: f64,
    dcrc_s: f64,
    dtail_s: f64,
    dentropy_s: f64,
    drecon_s: f64,
}

/// The end-to-end work of one op, as the untraced path measured it.
pub struct OpRun<'a> {
    pub field: &'a Field<f32>,
    pub target: f64,
    pub container: &'a [u8],
    pub compress_s: f64,
    pub decoded: &'a Field<f32>,
    pub decompress_s: f64,
}

impl LayerTotals {
    /// Replay both directions of one op under `parent`, adding to the
    /// totals. `opts` are the options the end-to-end compress used.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        parent: Option<usize>,
        op: u64,
        run: &OpRun<'_>,
        opts: &FixedPsnrOptions,
    ) -> Result<(), String> {
        let field = run.field;
        let n = field.len();

        // The paper's "negligible overhead": Eq. 8, evaluated once per field.
        let t0 = Instant::now();
        for _ in 0..DERIVE_REPS {
            black_box(ebrel_for_psnr(black_box(run.target)));
        }
        let derive_ns = t0.elapsed().as_nanos() as f64 / DERIVE_REPS as f64;

        // The same configuration `compress_fixed_psnr_only` derives: the
        // SzConfig defaults with the default options' adaptive intervals.
        let cfg = SzConfig::new(ErrorBound::ValueRangeRel(ebrel_for_psnr(run.target)))
            .with_quant_bins(opts.quant_bins)
            .with_auto_intervals(opts.auto_intervals)
            .with_lossless(opts.lossless)
            .with_threads(opts.threads)
            .with_block_rows(opts.block_rows)
            .with_chunk_dims(opts.chunk_dims)
            .with_kernel(opts.kernel)
            .with_predictor(opts.predictor);
        let (detailed, _) = tr.time("szlike::compress_with_detail", parent, op, || {
            szlike::compress_with_detail(field, &cfg)
        });
        let (bytes, detail) = detailed.map_err(|e| format!("compress_with_detail: {e}"))?;
        if bytes != run.container {
            return Err("compress_with_detail bytes differ from the end-to-end container".into());
        }
        if detail.quant_bins_used == 0 {
            return Err("field took a non-quantized path; no layer chain to replay".into());
        }
        let (eb, bins) = (detail.eb_abs, detail.quant_bins_used);
        let model = PredictorModel::Lorenzo1;

        let replay = tr.begin("replay.compress", parent, op);
        let mut recon = Vec::new();
        let (walk, walk_s) = tr.time("szlike::kernels::walk_fused", replay, op, || {
            walk_fused(
                field.as_slice(),
                field.shape(),
                eb,
                bins,
                model,
                EscapeCoding::Exact,
                &mut recon,
            )
        });
        if walk.unpred.len() != detail.n_unpredictable {
            return Err(format!(
                "walk replay escaped {} samples, the container {}",
                walk.unpred.len(),
                detail.n_unpredictable
            ));
        }
        let ((table, blob), entropy_s) =
            tr.time("losslesskit::huffman+mshuf::encode", replay, op, || {
                let counts = freq::count_dense(&walk.codes, bins);
                let codec = HuffmanCodec::from_counts(&counts);
                let mut table = Vec::new();
                codec.write_table(&mut table);
                (table, mshuf::encode(&walk.codes, &codec, HUFF_STREAMS))
            });
        if table.len() != detail.huffman_table_bytes || blob.len() != detail.code_stream_bytes {
            return Err(format!(
                "entropy replay wrote table {} / stream {} bytes, the container {} / {}",
                table.len(),
                blob.len(),
                detail.huffman_table_bytes,
                detail.code_stream_bytes
            ));
        }
        // Body framing, exactly as the monolithic writer lays it out.
        let mut body = Vec::with_capacity(table.len() + blob.len() + walk.unpred.len() * 4 + 32);
        body.push(2u8);
        varint::write_u64(&mut body, table.len() as u64);
        body.extend_from_slice(&table);
        varint::write_u64(&mut body, blob.len() as u64);
        body.extend_from_slice(&blob);
        varint::write_u64(&mut body, walk.unpred.len() as u64);
        body.push(0u8);
        for &u in &walk.unpred {
            u.write_le(&mut body);
        }
        if body.len() != detail.body_bytes {
            return Err(format!(
                "replayed body is {} bytes, the container's {}",
                body.len(),
                detail.body_bytes
            ));
        }
        let ((baked, bstats), tail_s) = tr.time(
            "losslesskit::bakeoff::compress_with_stats",
            replay,
            op,
            || bakeoff::compress_with_stats(&body, cfg.effort),
        );
        let tail_used = baked.len() < body.len();
        let payload: &[u8] = if tail_used { &baked } else { &body };
        let (crc_region, trailer) = bytes.split_at(bytes.len() - 4);
        if !crc_region.ends_with(payload) {
            return Err("replayed tail output is not the container's payload".into());
        }
        let (crc, crc_s) = tr.time("c:losslesskit::crc32", replay, op, || crc32(crc_region));
        if crc.to_le_bytes() != trailer {
            return Err("replayed CRC differs from the container trailer".into());
        }
        tr.end(replay);

        // The same compress with the program's own obs spans armed: its
        // cost over the unarmed run, and the `sz.predict` span as a
        // cross-check of the selection remainder.
        fpsnr_obs::reset();
        fpsnr_obs::enable();
        let (armed, armed_s) = tr.time("fpsnr-obs::armed_compress", parent, op, || {
            compress_fixed_psnr_only(field, run.target, opts)
        });
        let report = fpsnr_obs::snapshot();
        fpsnr_obs::disable();
        fpsnr_obs::reset();
        if armed.map_err(|e| format!("armed compress: {e}"))? != run.container {
            return Err("armed compress produced different bytes".into());
        }
        let predict_ns: u64 = report
            .spans
            .iter()
            .filter(|s| s.path.ends_with("sz.predict"))
            .map(|s| s.total_ns)
            .sum();

        // Decode side: the CRC and the tail undo are standalone stages of
        // the decoder; entropy decode and reconstruction are fused there,
        // so each runs here as a standalone probe.
        let replay = tr.begin("replay.decode", parent, op);
        let (_, dcrc_s) = tr.time("d:losslesskit::crc32", replay, op, || {
            crc32(black_box(crc_region))
        });
        let dtail_s = if tail_used {
            let (undone, s) = tr.time(
                "losslesskit::bakeoff::decompress_bounded",
                replay,
                op,
                || bakeoff::decompress_bounded(&baked, body.len()).map(|c| c.into_owned()),
            );
            if undone.map_err(|e| format!("tail undo: {e}"))? != body {
                return Err("tail undo did not give back the body".into());
            }
            s
        } else {
            0.0
        };
        let codec = HuffmanCodec::read_table(&table, &mut 0).map_err(|e| format!("table: {e}"))?;
        let (codes, dentropy_s) = tr.time("losslesskit::mshuf::decode_all", replay, op, || {
            mshuf::decode_all(&blob, &codec, n)
        });
        if codes.map_err(|e| format!("entropy probe: {e}"))? != walk.codes {
            return Err("entropy probe did not give back the walk's codes".into());
        }
        let unpred = walk.unpred.clone();
        let (samples, drecon_s) = tr.time("szlike::kernels::reconstruct_fused", replay, op, || {
            reconstruct_fused(&walk.codes, unpred, field.shape(), eb, bins, model)
        });
        let samples = samples.map_err(|e| format!("reconstruction probe: {e}"))?;
        let same = samples.len() == run.decoded.len()
            && samples
                .iter()
                .zip(run.decoded.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err("reconstruction probe differs from the decompressed samples".into());
        }
        tr.end(replay);

        let stored = Backend::ALL
            .iter()
            .position(|&b| b == Backend::Stored)
            .expect("stored backend");
        self.ops += 1;
        self.raw_bytes += (n * 4) as f64;
        self.samples += n as f64;
        self.compress_s += run.compress_s;
        self.walk_s += walk_s;
        self.entropy_s += entropy_s;
        self.tail_s += tail_s;
        self.crc_s += crc_s;
        self.code_stream_bytes += detail.code_stream_bytes as f64;
        self.escapes += detail.n_unpredictable as f64;
        self.tail_in += body.len() as f64;
        self.tail_saved += (body.len() - payload.len()) as f64;
        self.chunks += bstats.chunks.iter().sum::<u64>() as f64;
        self.stored_chunks += bstats.chunks[stored] as f64;
        self.armed_compress_s += armed_s;
        self.unarmed_compress_s += run.compress_s;
        self.predict_span_s += predict_ns as f64 * 1e-9;
        self.derive_ns.push(derive_ns);
        self.decompress_s += run.decompress_s;
        self.dcrc_s += dcrc_s;
        self.dtail_s += dtail_s;
        self.dentropy_s += dentropy_s;
        self.drecon_s += drecon_s;
        Ok(())
    }

    /// The per-layer metrics these totals give, by name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let c = self.compress_s;
        let share = |s: f64| ratio(s, c);
        let fused = self.decompress_s - self.dcrc_s - self.dtail_s;
        vec![
            ("c.walk.share", share(self.walk_s)),
            ("c.walk.mib_s", ratio(self.raw_bytes / MIB, self.walk_s)),
            ("c.entropy.share", share(self.entropy_s)),
            (
                "c.entropy.msym_s",
                ratio(self.samples / 1e6, self.entropy_s),
            ),
            (
                "c.bits_per_sample",
                ratio(8.0 * self.code_stream_bytes, self.samples),
            ),
            ("c.tail.share", share(self.tail_s)),
            ("c.tail.saved_frac", ratio(self.tail_saved, self.tail_in)),
            (
                "c.tail.stored_chunk_frac",
                ratio(self.stored_chunks, self.chunks),
            ),
            ("c.crc.share", share(self.crc_s)),
            (
                "c.select_rest.share",
                if c > 0.0 {
                    1.0 - share(self.walk_s + self.entropy_s + self.tail_s + self.crc_s)
                } else {
                    0.0
                },
            ),
            (
                "c.predict_span.share",
                ratio(self.predict_span_s, self.armed_compress_s),
            ),
            ("c.escape_frac", ratio(self.escapes, self.samples)),
            ("d.crc.share", ratio(self.dcrc_s, self.decompress_s)),
            ("d.tail.share", ratio(self.dtail_s, self.decompress_s)),
            ("d.fused.share", ratio(fused, self.decompress_s)),
            (
                "d.entropy_probe.msym_s",
                ratio(self.samples / 1e6, self.dentropy_s),
            ),
            (
                "d.recon_probe.mib_s",
                ratio(self.raw_bytes / MIB, self.drecon_s),
            ),
            (
                "d.fused_gain",
                ratio(self.dentropy_s + self.drecon_s, fused),
            ),
            (
                "bound.derive_ns",
                if self.derive_ns.is_empty() {
                    0.0
                } else {
                    median(&self.derive_ns)
                },
            ),
            (
                "obs.overhead_pct",
                ratio(
                    self.armed_compress_s - self.unarmed_compress_s,
                    self.unarmed_compress_s,
                ) * 100.0,
            ),
        ]
    }

    /// Human-readable layer table for both directions.
    pub fn render(&self, title: &str) -> String {
        let m = self.metrics();
        let get = |k: &str| m.iter().find(|(n, _)| *n == k).map_or(0.0, |(_, v)| *v);
        let c = self.compress_s;
        let d = self.decompress_s;
        let pct = |x: f64| 100.0 * x;
        format!(
            "{title}: {} ops, {:.1} MiB raw\n\
             compress  {:>9.3} s end to end (obs unarmed)\n\
             \x20 walk_fused              {:>6.1}%  {:>8.1} MiB/s\n\
             \x20 huffman+mshuf encode    {:>6.1}%  {:>8.1} Msym/s  {:.3} bits/sample\n\
             \x20 bakeoff tail            {:>6.1}%  saved {:.1}% of the body, {:.1}% of chunks stored\n\
             \x20 crc32                   {:>6.1}%\n\
             \x20 selection + framing     {:>6.1}%  (remainder; sz.predict span {:.1}% of the armed run)\n\
             \x20 escapes {:.4}% of samples; Eq. 8 derive {:.1} ns; obs armed overhead {:+.2}%\n\
             decompress {:>8.3} s end to end\n\
             \x20 crc32                   {:>6.1}%\n\
             \x20 bakeoff tail undo       {:>6.1}%\n\
             \x20 fused decode+recon      {:>6.1}%  (probes: entropy {:.1} Msym/s, recon {:.1} MiB/s, sum/fused {:.2})",
            self.ops,
            self.raw_bytes / MIB,
            c,
            pct(get("c.walk.share")),
            get("c.walk.mib_s"),
            pct(get("c.entropy.share")),
            get("c.entropy.msym_s"),
            get("c.bits_per_sample"),
            pct(get("c.tail.share")),
            pct(get("c.tail.saved_frac")),
            pct(get("c.tail.stored_chunk_frac")),
            pct(get("c.crc.share")),
            pct(get("c.select_rest.share")),
            pct(get("c.predict_span.share")),
            pct(get("c.escape_frac")),
            get("bound.derive_ns"),
            get("obs.overhead_pct"),
            d,
            pct(get("d.crc.share")),
            pct(get("d.tail.share")),
            pct(get("d.fused.share")),
            get("d.entropy_probe.msym_s"),
            get("d.recon_probe.mib_s"),
            get("d.fused_gain"),
        )
    }
}
