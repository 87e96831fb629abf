//! Ratio–quality modeling: predict compressed bits/value as a function of
//! the error bound from **one pilot pass** (a quantized walk and a sort of
//! its codes — about half the CPU of one compression), then invert the
//! curve to pick the bound that hits a target compression ratio.
//!
//! The paper's fixed-PSNR mode inverts a *distortion* target analytically
//! (Eq. 8); the dual contract — "give me N× compression" — has no closed
//! form because the compressed size depends on the whole prediction-error
//! *distribution*, not just the bin width. FRaZ-style tooling answers it
//! with black-box reruns; ratio–quality modeling (Jin et al.,
//! arXiv:2111.09815) shows the size is predictable from quantization-bin
//! statistics. This module implements that idea for our SZ pipeline:
//!
//! 1. **Pilot pass** — one quantized walk (prediction + quantization only;
//!    no entropy coding, no LZ) at a fine *reference* bound
//!    `eb_ref = vr·1e-6` collects the signed code-magnitude histogram. For
//!    blocked configurations the pilot runs the same per-block walks the
//!    blocked compressor does and merges the per-block histograms — the
//!    exact shared-frequency-table structure of the blocked container.
//! 2. **Curve** — for any coarser bound `eb = s·eb_ref`, the histogram
//!    rebins by `m ↦ round(m/s)` (bin widths scale linearly with the
//!    bound, Eq. 6's `δ = 2·eb`). Predicted bits/value is the Shannon
//!    entropy of the rebinned symbol stream (the Huffman+LZ pipeline
//!    estimate) plus escape-payload bits, a precision-ramp term for bounds
//!    near the scalar's ulp, and serialized-container overhead — all
//!    multiplied by an LZ-gain correction the caller fits online after the
//!    first real pass.
//! 3. **Inversion** — bits/value is monotone non-increasing in the bound,
//!    so a bisection on `ln eb` (pure histogram arithmetic, no
//!    compression) returns the bound whose predicted rate meets the
//!    target.
//!
//! The model is intentionally approximate (adaptive interval selection,
//! LZ window effects and table compression are folded into one fitted
//! gain); the fixed-ratio driver in `fpsnr-core` closes the residual with
//! at most two bounded secant refinements on *measured* ratios.

use ndfield::{Field, Scalar, Shape};

use crate::blocked::{block_range, resolve_block_rows, use_blocked};
use crate::compressor::{quantized_walk_on, select_model};
use crate::config::{LosslessBackend, SzConfig};
use crate::error::SzError;

/// Value-range-relative reference bound of the pilot walk. Fine enough
/// that every practically requested bound is a *coarsening* (`s ≥ 1`)
/// while staying well above f32's representable resolution.
const EB_REF_REL: f64 = 1e-6;
/// Quantizer grid of the pilot walk. Radius `2²¹` covers prediction
/// errors up to twice the value range at `eb_ref`, so pilot escapes are
/// (almost) only non-finite samples.
const PILOT_BINS: usize = 1 << 22;
/// Serialized fixed overhead estimate: header, mode/bound fields, varint
/// lengths, CRC trailer.
const HEADER_BYTES: f64 = 48.0;
/// Estimated serialized bytes per distinct Huffman symbol (canonical
/// table entry: symbol varint + code length).
const TABLE_BYTES_PER_SYMBOL: f64 = 3.0;
/// Estimated per-block framing bytes in the v2 blocked layout (directory
/// entry: lossless flag, length varint, CRC).
const BLOCK_FRAME_BYTES: f64 = 14.0;
/// Quantization-noise-feedback entropy floor, in bits per octave of
/// dynamic range per bin (see [`RateModel::predict_bits_per_value`]).
const NOISE_FLOOR_BITS_PER_OCTAVE: f64 = 0.28;
/// Saturation of the noise-feedback floor: reconstruction noise has a
/// standard deviation of roughly half a bin, and a discrete distribution
/// that wide carries ≈ 1.4 bits however coarse the bound gets.
const NOISE_FLOOR_CAP_BITS: f64 = 1.4;
/// Bin counts below this get their entropy term memoized per
/// [`RateModel::predict_bits_per_value`] call.
const SMALL_COUNT_TERMS: usize = 64;
/// Magnitudes a rebinned run is followed one by one before
/// [`RateModel::predict_bits_per_value`] jumps to the run's far edge.
const STEPS_BEFORE_JUMP: usize = 8;

/// Estimate coded bits/value for one predictor candidate from its sampled
/// quantized error magnitudes — the shared cost model behind
/// [`crate::compressor::select_model`]'s per-field and per-block bake-offs.
///
/// `qmags` holds the quantized error magnitude per sampled point with
/// `u64::MAX` (or anything `> radius`) marking an escape. Magnitudes are
/// priced like an exponent/mantissa code (the JPEG-DC / Elias-γ shape a
/// canonical Huffman code converges to on long-tailed alphabets): Shannon
/// entropy over the exponent classes — zero, `[2^(k−1), 2^k)` for each
/// `k`, escapes as one more class — plus `k−1` mantissa bits and one sign
/// bit per nonzero in-range magnitude, plus `sample_bits` per escape,
/// plus `extra_bits` of per-value side-channel overhead (regression
/// spends `8·REGRESSION_COEFF_BYTES / n` here). Pricing the within-class
/// spread explicitly matters for wide residual distributions: flat
/// buckets made a predictor whose magnitudes span thousands of bins look
/// several bits/value cheaper than its real Huffman stream.
pub(crate) fn candidate_bits_per_value(
    qmags: &[u64],
    radius: u64,
    sample_bits: f64,
    extra_bits: f64,
) -> f64 {
    if qmags.is_empty() {
        return extra_bits;
    }
    // Class 0 holds zeros; class k (1..=64) holds magnitudes with k bits.
    let mut hist = [0u64; 65];
    let mut escapes = 0u64;
    let mut nonzero_live = 0u64;
    let mut mantissa_bits = 0u64;
    for &q in qmags {
        if q > radius {
            escapes += 1;
        } else if q == 0 {
            hist[0] += 1;
        } else {
            let k = 64 - q.leading_zeros() as usize;
            hist[k] += 1;
            mantissa_bits += (k - 1) as u64;
            nonzero_live += 1;
        }
    }
    let n = qmags.len() as f64;
    let mut h = 0.0;
    for &c in hist.iter().chain(std::iter::once(&escapes)) {
        if c > 0 {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
    }
    let esc_frac = escapes as f64 / n;
    h + (mantissa_bits + nonzero_live) as f64 / n + esc_frac * sample_bits + extra_bits
}

/// Run the pilot walk at `eb_ref` and return its quantization codes
/// (blocks concatenated in order) with the number of blocks the modeled
/// container partitions into. Blocked configurations walk per block,
/// exactly as the blocked compressor does, so the merged histogram has
/// the blocked container's shared-frequency-table structure.
fn pilot_codes<T: Scalar>(
    data: &[T],
    shape: Shape,
    cfg: &SzConfig,
    eb_ref: f64,
) -> (Vec<u32>, usize) {
    let model = select_model(data, shape, cfg.predictor, eb_ref, PILOT_BINS);
    let mut recon = Vec::new();
    let walk = |data: &[T], shape: Shape, recon: &mut Vec<f64>| {
        quantized_walk_on(
            data, shape, eb_ref, PILOT_BINS, model, cfg.escape, false, recon, cfg.kernel,
        )
        .codes
    };
    if !use_blocked(cfg) {
        return (walk(data, shape, &mut recon), 1);
    }
    let block_rows = resolve_block_rows(shape, cfg.block_rows);
    let blocks = shape.dims()[0].div_ceil(block_rows);
    let mut codes = Vec::with_capacity(data.len());
    for b in 0..blocks {
        let (range, bshape) = block_range(shape, block_rows, b);
        codes.extend_from_slice(&walk(&data[range], bshape, &mut recon));
    }
    (codes, blocks)
}

/// `floor(log2 |x|)` of a finite nonzero `f64` lies in `[−1074, 1023]`;
/// the dense bucket array spans that with a margin.
const ABSMAG_MIN_BUCKET: i32 = -1080;
const ABSMAG_BUCKETS: usize = 2112;

/// Mantissa fields at or above this are within `2^-20` of the next power
/// of two.
const NEAR_NEXT_POWER: u64 = (1 << 52) - (1 << 32);

/// `a.log2().floor()` for a finite `a > 0`, from the exponent bits where
/// they must agree: for a normal `a` more than `2^-20` below the next power
/// of two, `log2 a` lies in `[e, e + 1 − 6.9·10⁻⁷]`, so any faithfully
/// rounded `log2` (exact at `2^e`, off by under one ulp elsewhere) floors
/// to `e`. Subnormals and the sliver below each power of two, where
/// rounding can reach `e + 1`, call `log2` itself.
fn floor_log2(a: f64) -> i32 {
    let bits = a.to_bits();
    let biased = (bits >> 52) as i32;
    if biased > 0 && bits & ((1 << 52) - 1) < NEAR_NEXT_POWER {
        biased - 1023
    } else {
        a.log2().floor() as i32
    }
}

/// Counts of `floor(log2 |x|)` over the finite nonzero samples, as sorted
/// `(bucket, count)` pairs with zero counts dropped.
fn absmag_buckets<T: Scalar>(data: &[T]) -> Vec<(i32, u64)> {
    let mut counts = vec![0u64; ABSMAG_BUCKETS];
    for v in data {
        let a = v.to_f64().abs();
        if a.is_finite() && a > 0.0 {
            counts[(floor_log2(a) - ABSMAG_MIN_BUCKET) as usize] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (i as i32 + ABSMAG_MIN_BUCKET, c))
        .collect()
}

/// Length of the prefix of the ascending `xs` whose elements are
/// `<= bound`, galloping from the front: O(log prefix) comparisons, so a
/// short prefix costs a comparison or two whatever the slice length.
fn gallop_le(xs: &[i64], bound: i64) -> usize {
    let (mut lo, mut step) = (0usize, 1usize);
    while lo + step <= xs.len() && xs[lo + step - 1] <= bound {
        lo += step;
        step *= 2;
    }
    let end = (lo + step).min(xs.len());
    lo + xs[lo..end].partition_point(|&m| m <= bound)
}

/// The ratio–quality curve built from one pilot pass over one field.
///
/// Immutable once built: every prediction/inversion is pure histogram
/// arithmetic, O(bins) per bound through prefix sums over the pilot's
/// distinct magnitudes. On a 225×450 ATM field (up to ~20 000 distinct
/// magnitudes) one bound costs ~20 µs, so an inversion is far cheaper
/// than a compression while a 481-point [`RateCurve`] costs about as much
/// as two.
#[derive(Debug, Clone)]
pub struct RateModel {
    /// Distinct signed pilot code magnitudes (`code − radius`), ascending;
    /// escapes excluded.
    mags: Vec<i64>,
    /// Prefix sums of the pilot counts behind `mags`: `mags[i]` occurred
    /// `cum[i + 1] − cum[i]` times, so any run of magnitudes is counted in
    /// O(1). `cum.len() == mags.len() + 1`.
    cum: Vec<u64>,
    /// `log2 |x|` buckets of the data values (zeros and non-finite
    /// excluded) — drives the precision-escape ramp.
    absmag: Vec<(i32, u64)>,
    /// Total samples.
    n: u64,
    /// Pilot samples with a *nonzero* code — the mass that participates in
    /// quantization-noise feedback. Constant runs predict exactly and stay
    /// silent at every bound, so they are exempt from the noise floor.
    pilot_live: u64,
    /// Samples that escaped even at the reference bound (non-finite
    /// values, pathological round-off).
    pilot_escapes: u64,
    /// Absolute reference bound the pilot walked with.
    eb_ref: f64,
    /// Value range of the field.
    value_range: f64,
    /// Bits per raw sample (32 or 64).
    sample_bits: f64,
    /// Relative round-off scale of the scalar type (≈ its ulp at 1.0).
    scalar_eps: f64,
    /// Quantization-bin cap of the target pipeline.
    quant_bins: usize,
    /// Lossless backend of the target pipeline.
    lossless: LosslessBackend,
    /// Blocks the pilot (and the target container) partitions into.
    n_blocks: usize,
}

impl RateModel {
    /// Run the pilot pass: one quantized walk at the reference bound (per
    /// block when `cfg` routes to the blocked container, mirroring its
    /// merged frequency tables), plus a value-magnitude scan.
    ///
    /// `cfg.bound` is ignored — the pilot picks its own reference bound;
    /// every other knob (bins, predictor, escape coding, lossless,
    /// threads/block_rows) describes the pipeline being modeled.
    ///
    /// # Errors
    /// [`SzError::BadBound`] for constant or non-finite-range fields (the
    /// ratio–quality curve is undefined there: the container size no
    /// longer depends on the bound), or an invalid `cfg`.
    pub fn pilot<T: Scalar>(field: &Field<T>, cfg: &SzConfig) -> Result<RateModel, SzError> {
        cfg.validate()?;
        let _span = fpsnr_obs::span("sz.ratemodel.pilot");
        let vr = field.value_range();
        if !vr.is_finite() || vr <= 0.0 {
            return Err(SzError::BadBound(format!(
                "ratio–quality pilot needs a finite nonzero value range, got {vr}"
            )));
        }
        let eb_ref = vr * EB_REF_REL;
        let data = field.as_slice();
        let (mut codes, n_blocks) = pilot_codes(data, field.shape(), cfg, eb_ref);
        // Code 0 is the escape symbol and every other code is `magnitude +
        // radius`, so sorting the codes sorts the magnitudes: escapes lead,
        // then one run per distinct magnitude.
        codes.sort_unstable();
        let escapes = codes.partition_point(|&c| c == 0);
        let radius = (PILOT_BINS / 2) as i64;
        let mut mags = Vec::new();
        let mut cum = vec![0u64];
        for run in codes[escapes..].chunk_by(|a, b| a == b) {
            mags.push(run[0] as i64 - radius);
            cum.push(cum[cum.len() - 1] + run.len() as u64);
        }
        let zero_mass = mags.binary_search(&0).map_or(0, |i| cum[i + 1] - cum[i]);
        let pilot_live = cum[mags.len()] - zero_mass;
        Ok(RateModel {
            mags,
            cum,
            absmag: absmag_buckets(data),
            n: data.len() as u64,
            pilot_live,
            pilot_escapes: escapes as u64,
            eb_ref,
            value_range: vr,
            sample_bits: (T::BYTES * 8) as f64,
            scalar_eps: if T::BYTES == 4 {
                2.0f64.powi(-23)
            } else {
                2.0f64.powi(-52)
            },
            quant_bins: cfg.quant_bins,
            lossless: cfg.lossless,
            n_blocks,
        })
    }

    /// Value range of the piloted field (the `eb_rel ↔ eb_abs` conversion
    /// factor).
    pub fn value_range(&self) -> f64 {
        self.value_range
    }

    /// Predicted compressed bits per value at absolute bound `eb_abs`.
    ///
    /// `lz_gain` is the online-fitted correction for everything the
    /// entropy estimate cannot see (LZ window effects, table compression,
    /// adaptive interval selection); pass `1.0` before the first real
    /// compression and the driver's fitted value afterwards.
    pub fn predict_bits_per_value(&self, eb_abs: f64, lz_gain: f64) -> f64 {
        let n = self.n as f64;
        if n == 0.0 {
            return 0.0;
        }
        let s = eb_abs / self.eb_ref;
        let radius = (self.quant_bins / 2) as i64;
        // Rebinning maps m ↦ round(m/s) and escapes |round(m/s)| ≥ radius−1.
        // That test is monotone in |m|, so on the sorted magnitudes the
        // escapes are a prefix of the negative ones plus a suffix of the
        // rest: two binary searches find the kept range and the prefix sums
        // count both tails.
        let escapes_at = |m: i64| (m as f64 / s).round().abs() >= (radius - 1) as f64;
        let lo = self.mags.partition_point(|&m| m < 0 && escapes_at(m));
        let hi = lo + self.mags[lo..].partition_point(|&m| m < 0 || !escapes_at(m));
        let rebin_escapes =
            self.pilot_escapes + self.cum[lo] + (self.cum[self.mags.len()] - self.cum[hi]);
        // Precision ramp: a sample whose own round-off exceeds the bound
        // cannot be reconstructed within it and escapes, whatever the
        // predictor does. This is what makes very fine bounds on f32 data
        // blow up to raw size instead of compressing further.
        let mut precision_escapes = 0u64;
        for &(bucket, c) in &self.absmag {
            if 2.0f64.powi(bucket) * self.scalar_eps > eb_abs {
                precision_escapes += c;
            }
        }
        let esc_frac =
            (((rebin_escapes + precision_escapes) as f64) / n).min(1.0);
        // Mixture entropy: escape symbol with mass e, code j with mass
        // (1−e)·qⱼ ⇒ H = −e·log e − (1−e)·log(1−e) + (1−e)·H(q).
        let hist_total = self.cum[hi] - self.cum[lo];
        let mut h = 0.0;
        if esc_frac > 0.0 && esc_frac < 1.0 {
            h -= esc_frac * esc_frac.log2()
                + (1.0 - esc_frac) * (1.0 - esc_frac).log2();
        }
        let with_entropy = hist_total > 0 && esc_frac < 1.0;
        let total = hist_total as f64;
        let term = |c: u64| {
            let p = c as f64 / total;
            p * p.log2()
        };
        // Most bins are tail bins holding a handful of samples, so their
        // p·log₂p terms repeat: compute each small count's term once (NaN
        // marks "not yet"; a nonempty bin's term is always finite).
        let mut small_terms = [f64::NAN; SMALL_COUNT_TERMS];
        let mut hq = 0.0;
        let mut bins = 0usize;
        self.for_each_bin(lo, hi, s, |c| {
            bins += 1;
            if with_entropy {
                hq -= match small_terms.get_mut(c as usize) {
                    Some(t) => {
                        if t.is_nan() {
                            *t = term(c);
                        }
                        *t
                    }
                    None => term(c),
                };
            }
        });
        if with_entropy {
            if s < 1.0 {
                // Bounds finer than the pilot's reference split bins the
                // histogram cannot resolve; under the flat-within-bin
                // assumption each halving of the bound adds one bit.
                hq = (hq + (1.0 / s).log2()).min((self.quant_bins as f64).log2());
            }
            // Quantization-noise feedback floor. Rebinning alone predicts
            // H → 0 once the bound dwarfs the pilot prediction errors, but
            // the real pipeline predicts from *reconstructed* neighbours:
            // each carries O(eb) rounding noise, which keeps codes jittering
            // over a few bins. Measured code entropy on live fields tracks
            // min(0.28·t, 1.4) where t = log₂(vr / 2eb) is the octaves of
            // dynamic range per bin — the feedback dies (t → 0) exactly when
            // one bin swallows the whole range and reconstruction snaps
            // flat. Constant-predicting mass is exempt (no rounding, no
            // noise), hence the live-fraction scaling.
            let live_frac = self.pilot_live as f64 / n;
            let range_octaves = (self.value_range / (2.0 * eb_abs)).log2().max(0.0);
            let floor = (NOISE_FLOOR_BITS_PER_OCTAVE * range_octaves)
                .min(NOISE_FLOOR_CAP_BITS)
                * live_frac;
            h += (1.0 - esc_frac) * hq.max(floor);
        }
        let mut payload = h + esc_frac * self.sample_bits;
        if self.lossless == LosslessBackend::None {
            // Without the LZ stage the canonical-Huffman 1-bit/symbol
            // floor is real output, not squashable redundancy.
            payload = payload.max(1.0 + esc_frac * self.sample_bits);
        }
        let distinct = bins as f64 + 1.0;
        let overhead_bytes = HEADER_BYTES
            + TABLE_BYTES_PER_SYMBOL * distinct
            + BLOCK_FRAME_BYTES * self.n_blocks as f64;
        payload * lz_gain + overhead_bytes * 8.0 / n
    }

    /// Visit the pilot count of every bin that `m ↦ round(m/s)` forms over
    /// `mags[lo..hi]`, in ascending magnitude order.
    ///
    /// The bin index is monotone in `m`, so each bin is a run of
    /// consecutive magnitudes, and two magnitudes at least `1.01·|s|` apart
    /// land more than one bin apart. A magnitude whose successor is that
    /// far away is therefore a bin on its own and needs no evaluation: that
    /// covers the sparse tail at every bound, and every magnitude once
    /// `|s| ≤ 0.99`. A denser run rounds only its first magnitude to get its
    /// bin `k`, then tests the next ones against the bin's upper edge
    /// `k + ½` (a division and a comparison, no rounding). A run still open
    /// after [`STEPS_BEFORE_JUMP`] magnitudes jumps to `m ≈ (k + ½)·s` with
    /// integer comparisons and settles the edge with the same test.
    fn for_each_bin(&self, lo: usize, hi: usize, s: f64, mut visit: impl FnMut(u64)) {
        let mags = &self.mags;
        // round(m/−s) = −round(m/s): a negative bound bins like its size.
        let s = s.abs();
        if s.is_nan() {
            // Every bin index is NaN, which casts to bin 0.
            if lo < hi {
                visit(self.cum[hi] - self.cum[lo]);
            }
            return;
        }
        let min_gap = 1.01 * s;
        let mut i = lo;
        while i < hi {
            if i + 1 == hi || (mags[i + 1] - mags[i]) as f64 >= min_gap {
                visit(self.cum[i + 1] - self.cum[i]);
                i += 1;
                continue;
            }
            // From a magnitude in bin k upwards, m stays in bin k while m/s
            // is below k + ½; for k < 0 the edge itself belongs to k, since
            // round() takes ties away from zero.
            let k = (mags[i] as f64 / s).round() as i64;
            let top = k as f64 + 0.5;
            let in_bin = |m: i64| {
                let q = m as f64 / s;
                q < top || (k < 0 && q == top)
            };
            let mut j = i + 1;
            while j < hi && in_bin(mags[j]) {
                j += 1;
                if j - i == STEPS_BEFORE_JUMP && j < hi {
                    j += gallop_le(&mags[j..hi], (top * s) as i64);
                    while !in_bin(mags[j - 1]) {
                        j -= 1;
                    }
                }
            }
            visit(self.cum[j] - self.cum[i]);
            i = j;
        }
    }

    /// Predicted total container bytes at absolute bound `eb_abs` — the
    /// [`Self::predict_bits_per_value`] rate times the sample count.
    pub fn predict_bytes(&self, eb_abs: f64, lz_gain: f64) -> f64 {
        self.predict_bits_per_value(eb_abs, lz_gain) * self.n as f64 / 8.0
    }

    /// Sample the whole predicted bytes-vs-PSNR curve on a uniform PSNR
    /// grid (`psnr_lo + i·step` for `i in 0..points`), mapping each grid
    /// PSNR to its Eq. 8 bound (`eb_abs = √3·10^(−PSNR/20)·vr`) and
    /// evaluating the rate model there.
    ///
    /// This is the snapshot-allocation interface: the fixed-ratio driver
    /// needs one inversion ([`Self::invert_for_ratio`]), but a global
    /// bit-allocation solver probes *many* (PSNR, bytes) points per field
    /// while water-filling a shared budget, so it wants the whole curve
    /// materialized once — every later probe is an array lookup, not a
    /// histogram rebin. Bytes are forced monotone non-decreasing in PSNR
    /// (the model is monotone up to floating-point noise; solvers rely on
    /// it exactly).
    ///
    /// # Panics
    /// Panics when `points == 0` or `step` is not finite and positive.
    pub fn curve(&self, psnr_lo: f64, step: f64, points: usize, lz_gain: f64) -> RateCurve {
        assert!(points > 0, "curve needs at least one grid point");
        assert!(
            step.is_finite() && step > 0.0,
            "curve step must be finite and positive"
        );
        let mut bytes = Vec::with_capacity(points);
        let mut prev = 0.0f64;
        for i in 0..points {
            let psnr = psnr_lo + step * i as f64;
            let eb_abs = 3f64.sqrt() * 10f64.powf(-psnr / 20.0) * self.value_range;
            let b = self.predict_bytes(eb_abs, lz_gain).max(prev);
            bytes.push(b);
            prev = b;
        }
        RateCurve {
            psnr_lo,
            step,
            bytes,
            value_range: self.value_range,
            n_samples: self.n,
        }
    }

    /// Invert the curve: the absolute bound whose predicted rate meets
    /// `target_ratio`, found by bisection on `ln eb` (the rate is monotone
    /// non-increasing in the bound). Clamped to `[vr·1e-12, 2·vr]` when
    /// the target is outside the reachable range — the driver detects the
    /// resulting miss from the measured ratio.
    pub fn invert_for_ratio(&self, target_ratio: f64, lz_gain: f64) -> f64 {
        let target_bpv = self.sample_bits / target_ratio;
        let eb_min = self.value_range * 1e-12;
        let eb_max = self.value_range * 2.0;
        if self.predict_bits_per_value(eb_min, lz_gain) <= target_bpv {
            return eb_min;
        }
        if self.predict_bits_per_value(eb_max, lz_gain) >= target_bpv {
            return eb_max;
        }
        let (mut lo, mut hi) = (eb_min.ln(), eb_max.ln());
        for _ in 0..44 {
            let mid = 0.5 * (lo + hi);
            if self.predict_bits_per_value(mid.exp(), lz_gain) > target_bpv {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (0.5 * (lo + hi)).exp()
    }
}

/// One field's predicted bytes-vs-PSNR curve, sampled by
/// [`RateModel::curve`] on a uniform PSNR grid.
///
/// The curve is immutable and cheap to probe (array lookups), which is
/// what lets a snapshot-level allocator sum and scan curves for dozens of
/// fields per solver iteration. Grid PSNRs map to bounds via Eq. 8, so
/// compressing a field at grid point `i` means running fixed-PSNR mode at
/// `psnr_at(i)`.
#[derive(Debug, Clone)]
pub struct RateCurve {
    /// PSNR of grid index 0, in dB.
    psnr_lo: f64,
    /// Grid spacing in dB.
    step: f64,
    /// Predicted container bytes per grid point, non-decreasing.
    bytes: Vec<f64>,
    /// Value range of the piloted field.
    value_range: f64,
    /// Samples in the piloted field.
    n_samples: u64,
}

impl RateCurve {
    /// Number of grid points.
    pub fn points(&self) -> usize {
        self.bytes.len()
    }

    /// PSNR of grid index `i` (dB).
    pub fn psnr_at(&self, i: usize) -> f64 {
        self.psnr_lo + self.step * i as f64
    }

    /// Predicted container bytes at grid index `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn bytes_at(&self, i: usize) -> f64 {
        self.bytes[i]
    }

    /// Largest grid index whose predicted bytes fit within `budget`, or
    /// `None` when even index 0 exceeds it. Binary search over the
    /// monotone byte array.
    pub fn max_index_within(&self, budget: f64) -> Option<usize> {
        if self.bytes[0] > budget {
            return None;
        }
        let (mut lo, mut hi) = (0usize, self.bytes.len() - 1);
        while lo < hi {
            let mid = (lo + hi + 1) / 2;
            if self.bytes[mid] <= budget {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }

    /// A copy of the curve with every predicted byte count multiplied by
    /// `gain` — the allocation driver's feedback correction: after one
    /// real compression pass, `gain = achieved / predicted` re-anchors the
    /// curve so it passes through the measured point while keeping the
    /// pilot-derived shape.
    pub fn scaled(&self, gain: f64) -> RateCurve {
        RateCurve {
            psnr_lo: self.psnr_lo,
            step: self.step,
            bytes: self.bytes.iter().map(|b| b * gain).collect(),
            value_range: self.value_range,
            n_samples: self.n_samples,
        }
    }

    /// Value range of the piloted field.
    pub fn value_range(&self) -> f64 {
        self.value_range
    }

    /// Samples in the piloted field.
    pub fn n_samples(&self) -> u64 {
        self.n_samples
    }
}

#[cfg(test)]
mod reference {
    //! The original per-sample `HashMap` pilot tally and per-magnitude
    //! rebin/entropy loop, kept as the oracle the prefix-sum model must
    //! match bit for bit.

    use super::*;
    use std::collections::HashMap;

    /// Signed magnitudes with counts (ascending) and the escape count of
    /// pilot codes, tallied one sample at a time.
    pub(super) fn tally(codes: &[u32]) -> (Vec<(i64, u64)>, u64) {
        let radius = (PILOT_BINS / 2) as i64;
        let mut mag_counts: HashMap<i64, u64> = HashMap::new();
        let mut escapes = 0u64;
        for &code in codes {
            if code == 0 {
                escapes += 1;
            } else {
                *mag_counts.entry(code as i64 - radius).or_insert(0) += 1;
            }
        }
        let mut mags: Vec<(i64, u64)> = mag_counts.into_iter().collect();
        mags.sort_unstable();
        (mags, escapes)
    }

    /// `floor(log2 |x|)` buckets of the finite nonzero samples.
    pub(super) fn absmag<T: Scalar>(data: &[T]) -> Vec<(i32, u64)> {
        let mut absmag_counts: HashMap<i32, u64> = HashMap::new();
        for v in data {
            let a = v.to_f64().abs();
            if a.is_finite() && a > 0.0 {
                *absmag_counts.entry(a.log2().floor() as i32).or_insert(0) += 1;
            }
        }
        let mut absmag: Vec<(i32, u64)> = absmag_counts.into_iter().collect();
        absmag.sort_unstable();
        absmag
    }

    /// [`RateModel::predict_bits_per_value`] as one merge over every
    /// `(magnitude, count)` pair of `mags`.
    pub(super) fn predict_bits_per_value(
        model: &RateModel,
        mags: &[(i64, u64)],
        eb_abs: f64,
        lz_gain: f64,
    ) -> f64 {
        let n = model.n as f64;
        if n == 0.0 {
            return 0.0;
        }
        let s = eb_abs / model.eb_ref;
        let radius = (model.quant_bins / 2) as i64;
        // Rebin the sorted pilot magnitudes: m ↦ round(m/s) is monotone in
        // m, so equal targets form runs and one linear merge suffices.
        let mut merged: Vec<u64> = Vec::with_capacity(mags.len());
        let mut rebin_escapes = model.pilot_escapes;
        let mut prev: Option<i64> = None;
        for &(m, c) in mags {
            let m2f = (m as f64 / s).round();
            if m2f.abs() >= (radius - 1) as f64 {
                rebin_escapes += c;
                continue;
            }
            let m2 = m2f as i64;
            match prev {
                Some(p) if p == m2 => *merged.last_mut().expect("run open") += c,
                _ => {
                    merged.push(c);
                    prev = Some(m2);
                }
            }
        }
        // Precision ramp: a sample whose own round-off exceeds the bound
        // cannot be reconstructed within it and escapes, whatever the
        // predictor does. This is what makes very fine bounds on f32 data
        // blow up to raw size instead of compressing further.
        let mut precision_escapes = 0u64;
        for &(bucket, c) in &model.absmag {
            if 2.0f64.powi(bucket) * model.scalar_eps > eb_abs {
                precision_escapes += c;
            }
        }
        let esc_frac =
            (((rebin_escapes + precision_escapes) as f64) / n).min(1.0);
        // Mixture entropy: escape symbol with mass e, code j with mass
        // (1−e)·qⱼ ⇒ H = −e·log e − (1−e)·log(1−e) + (1−e)·H(q).
        let hist_total: u64 = merged.iter().sum();
        let mut h = 0.0;
        if esc_frac > 0.0 && esc_frac < 1.0 {
            h -= esc_frac * esc_frac.log2()
                + (1.0 - esc_frac) * (1.0 - esc_frac).log2();
        }
        if hist_total > 0 && esc_frac < 1.0 {
            let total = hist_total as f64;
            let mut hq = 0.0;
            for &c in &merged {
                let p = c as f64 / total;
                hq -= p * p.log2();
            }
            if s < 1.0 {
                // Bounds finer than the pilot's reference split bins the
                // histogram cannot resolve; under the flat-within-bin
                // assumption each halving of the bound adds one bit.
                hq = (hq + (1.0 / s).log2()).min((model.quant_bins as f64).log2());
            }
            // Quantization-noise feedback floor. Rebinning alone predicts
            // H → 0 once the bound dwarfs the pilot prediction errors, but
            // the real pipeline predicts from *reconstructed* neighbours:
            // each carries O(eb) rounding noise, which keeps codes jittering
            // over a few bins. Measured code entropy on live fields tracks
            // min(0.28·t, 1.4) where t = log₂(vr / 2eb) is the octaves of
            // dynamic range per bin — the feedback dies (t → 0) exactly when
            // one bin swallows the whole range and reconstruction snaps
            // flat. Constant-predicting mass is exempt (no rounding, no
            // noise), hence the live-fraction scaling.
            let live_frac = model.pilot_live as f64 / n;
            let range_octaves = (model.value_range / (2.0 * eb_abs)).log2().max(0.0);
            let floor = (NOISE_FLOOR_BITS_PER_OCTAVE * range_octaves)
                .min(NOISE_FLOOR_CAP_BITS)
                * live_frac;
            h += (1.0 - esc_frac) * hq.max(floor);
        }
        let mut payload = h + esc_frac * model.sample_bits;
        if model.lossless == LosslessBackend::None {
            // Without the LZ stage the canonical-Huffman 1-bit/symbol
            // floor is real output, not squashable redundancy.
            payload = payload.max(1.0 + esc_frac * model.sample_bits);
        }
        let distinct = merged.len() as f64 + 1.0;
        let overhead_bytes = HEADER_BYTES
            + TABLE_BYTES_PER_SYMBOL * distinct
            + BLOCK_FRAME_BYTES * model.n_blocks as f64;
        payload * lz_gain + overhead_bytes * 8.0 / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorBound;
    use crate::{compress, SzConfig};
    use ndfield::Shape;
    use proptest::prelude::*;

    fn textured(rows: usize, cols: usize) -> Field<f32> {
        Field::from_fn_2d(rows, cols, |i, j| {
            let x = i as f32 * 0.13;
            let y = j as f32 * 0.17;
            10.0 * (x.sin() + y.cos()) + 2.0 * ((x * 5.1).sin() * (y * 4.3).cos())
        })
    }

    fn cfg() -> SzConfig {
        SzConfig::new(ErrorBound::Abs(1.0))
    }

    #[test]
    fn rate_curve_is_monotone_in_the_bound() {
        let f = textured(96, 96);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let vr = model.value_range();
        let mut prev = f64::INFINITY;
        for rel in [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1] {
            let bpv = model.predict_bits_per_value(rel * vr, 1.0);
            assert!(
                bpv <= prev + 1e-6,
                "rate increased with a looser bound at eb_rel {rel}: {bpv} > {prev}"
            );
            prev = bpv;
        }
    }

    #[test]
    fn prediction_tracks_measured_size_within_a_factor() {
        // The pilot model must land in the right ballpark (the driver's
        // secant refinements absorb the residual, but only if the first
        // guess is sane).
        let f = textured(128, 128);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let vr = model.value_range();
        for rel in [1e-4, 1e-3, 1e-2] {
            let predicted = model.predict_bits_per_value(rel * vr, 1.0);
            let bytes =
                compress(&f, &SzConfig::new(ErrorBound::ValueRangeRel(rel))).unwrap();
            let actual = bytes.len() as f64 * 8.0 / f.len() as f64;
            let err = predicted / actual;
            assert!(
                (0.4..=2.5).contains(&err),
                "eb_rel {rel}: predicted {predicted:.3} bpv vs actual {actual:.3} bpv"
            );
        }
    }

    #[test]
    fn inversion_crosses_the_target_rate() {
        let f = textured(96, 128);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        for ratio in [4.0, 8.0, 16.0] {
            let eb = model.invert_for_ratio(ratio, 1.0);
            let bpv = model.predict_bits_per_value(eb, 1.0);
            let target_bpv = 32.0 / ratio;
            assert!(
                (bpv - target_bpv).abs() / target_bpv < 0.1,
                "ratio {ratio}: inverted bound predicts {bpv:.3} bpv, want {target_bpv:.3}"
            );
        }
    }

    #[test]
    fn blocked_pilot_merges_per_block_histograms() {
        let f = textured(64, 96);
        let mono = RateModel::pilot(&f, &cfg()).unwrap();
        let blocked = RateModel::pilot(
            &f,
            &cfg().with_threads(2).with_block_rows(16),
        )
        .unwrap();
        assert_eq!(blocked.n_blocks, 4);
        assert_eq!(mono.n, blocked.n);
        // Same data, same reference bound: the merged histogram mass must
        // match the monolithic one (block boundaries only perturb a few
        // first-row predictions).
        let mono_mass = mono.cum[mono.mags.len()];
        let blk_mass = blocked.cum[blocked.mags.len()];
        assert_eq!(mono_mass + mono.pilot_escapes, blk_mass + blocked.pilot_escapes);
    }

    #[test]
    fn curve_is_monotone_and_matches_pointwise_prediction() {
        let f = textured(96, 96);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let curve = model.curve(20.0, 0.25, 481, 1.0);
        assert_eq!(curve.points(), 481);
        assert!((curve.psnr_at(0) - 20.0).abs() < 1e-12);
        assert!((curve.psnr_at(480) - 140.0).abs() < 1e-9);
        let mut prev = 0.0;
        for i in 0..curve.points() {
            assert!(curve.bytes_at(i) >= prev, "bytes dipped at index {i}");
            prev = curve.bytes_at(i);
        }
        // Away from the monotonicity clamp, the grid must agree with a
        // direct model evaluation at the same Eq. 8 bound.
        let psnr = curve.psnr_at(200);
        let eb = 3f64.sqrt() * 10f64.powf(-psnr / 20.0) * model.value_range();
        let direct = model.predict_bytes(eb, 1.0);
        assert!(
            (curve.bytes_at(200) - direct).abs() <= direct * 1e-9 + 1e-6,
            "grid {} vs direct {direct}",
            curve.bytes_at(200)
        );
    }

    #[test]
    fn curve_inverse_lookup_brackets_the_budget() {
        let f = textured(64, 96);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let curve = model.curve(20.0, 0.5, 241, 1.0);
        // A budget below the cheapest point is infeasible.
        assert!(curve.max_index_within(curve.bytes_at(0) - 1.0).is_none());
        // Any point's own byte count maps back to at least that index.
        for i in [0, 17, 120, 240] {
            let j = curve.max_index_within(curve.bytes_at(i)).unwrap();
            assert!(j >= i, "index {i} inverted to {j}");
            if j + 1 < curve.points() {
                assert!(curve.bytes_at(j + 1) > curve.bytes_at(i));
            }
        }
    }

    #[test]
    fn scaled_curve_multiplies_bytes() {
        let f = textured(48, 48);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let curve = model.curve(30.0, 1.0, 50, 1.0);
        let scaled = curve.scaled(1.5);
        for i in 0..curve.points() {
            assert!((scaled.bytes_at(i) - curve.bytes_at(i) * 1.5).abs() < 1e-6);
        }
        assert_eq!(scaled.points(), curve.points());
        assert_eq!(scaled.n_samples(), curve.n_samples());
    }

    /// Deterministic field over `dims`, scaled by `scale`: a smooth carrier
    /// plus xorshift noise of amplitude `noise`, a constant run over the
    /// third sixth of the samples, and NaN/±inf samples when `specials`.
    fn oracle_field<T: Scalar>(
        dims: &[usize],
        seed: u64,
        noise: f64,
        scale: f64,
        specials: bool,
    ) -> Field<T> {
        let n: usize = dims.iter().product();
        let mut x = seed | 1;
        let vals = (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = if (n / 3..n / 2).contains(&i) {
                    1.25
                } else if specials && x.is_multiple_of(37) {
                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(x >> 8) as usize % 3]
                } else {
                    let u = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    (i as f64 * 0.21).sin() * 40.0 + noise * u
                };
                T::from_f64(v * scale)
            })
            .collect();
        Field::from_vec(Shape::from_dims(dims), vals)
    }

    /// Same bits, or both NaN (non-positive and NaN bounds are probed too).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The prefix-sum model against the reference tally and rebin loop:
    /// identical histogram, buckets and escapes, and bit-identical rates
    /// and curve bytes over bounds below, at and around the pilot's
    /// reference bound, across the merging range and past the radius
    /// cut-off.
    fn matches_reference<T: Scalar>(
        field: &Field<T>,
        cfg: &SzConfig,
        lz_gain: f64,
        s_extra: f64,
    ) -> Result<(), String> {
        let Ok(model) = RateModel::pilot(field, cfg) else {
            return Ok(()); // no finite nonzero range: no curve to compare
        };
        let (codes, n_blocks) = pilot_codes(field.as_slice(), field.shape(), cfg, model.eb_ref);
        let (ref_mags, ref_escapes) = reference::tally(&codes);
        let mags: Vec<(i64, u64)> = (0..model.mags.len())
            .map(|i| (model.mags[i], model.cum[i + 1] - model.cum[i]))
            .collect();
        if mags != ref_mags || model.pilot_escapes != ref_escapes || model.n_blocks != n_blocks {
            return Err(format!("pilot histogram differs: {} vs {} magnitudes", mags.len(), ref_mags.len()));
        }
        let ref_live: u64 = ref_mags.iter().filter(|&&(m, _)| m != 0).map(|&(_, c)| c).sum();
        if model.pilot_live != ref_live || model.absmag != reference::absmag(field.as_slice()) {
            return Err("pilot live mass or magnitude buckets differ".to_string());
        }
        let ratios = [
            1e-3, 0.5, 0.99, 0.995, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.01, 1.5, 2.5, 3.0, 7.3,
            64.0, 1e3, 1.7e4, 1e6, 1e9, s_extra, 0.0, -2.5, f64::INFINITY, f64::NAN,
        ];
        for r in ratios {
            let eb = r * model.eb_ref;
            let new = model.predict_bits_per_value(eb, lz_gain);
            let old = reference::predict_bits_per_value(&model, &ref_mags, eb, lz_gain);
            if !same(new, old) {
                return Err(format!("s = {r}: {new:e} vs reference {old:e}"));
            }
        }
        let curve = model.curve(20.0, 1.0, 121, lz_gain);
        let mut prev = 0.0f64;
        for i in 0..curve.points() {
            let eb = 3f64.sqrt() * 10f64.powf(-curve.psnr_at(i) / 20.0) * model.value_range;
            let old = (reference::predict_bits_per_value(&model, &ref_mags, eb, lz_gain)
                * model.n as f64
                / 8.0)
                .max(prev);
            prev = old;
            if !same(curve.bytes_at(i), old) {
                return Err(format!("curve point {i}: {} vs reference {old}", curve.bytes_at(i)));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prefix_sum_model_matches_reference_bit_for_bit(
            rank in 1usize..4,
            extents in any::<u64>(),
            seed in any::<u64>(),
            wide in any::<bool>(),
            specials in any::<bool>(),
            noise_exp in -4.0f64..1.5,
            scale_exp in -12i32..12,
            bins_pow in 2u32..17,
            block_rows in 0usize..4,
            no_lz in any::<bool>(),
            lz_gain in 0.5f64..2.0,
            s_exp in -3.0f64..8.0,
        ) {
            let max_extent = [600u64, 40, 12][rank - 1];
            let dims: Vec<usize> = (0..rank)
                .map(|a| 2 + ((extents >> (16 * a)) % max_extent) as usize)
                .collect();
            let mut cfg = SzConfig::new(ErrorBound::Abs(1.0))
                .with_quant_bins(1 << bins_pow)
                .with_block_rows(block_rows);
            if no_lz {
                cfg = cfg.with_lossless(LosslessBackend::None);
            }
            let (noise, scale) = (10f64.powf(noise_exp), 10f64.powi(scale_exp));
            let s_extra = 10f64.powf(s_exp);
            let res = if wide {
                matches_reference(&oracle_field::<f64>(&dims, seed, noise, scale, specials), &cfg, lz_gain, s_extra)
            } else {
                matches_reference(&oracle_field::<f32>(&dims, seed, noise, scale, specials), &cfg, lz_gain, s_extra)
            };
            prop_assert!(res.is_ok(), "dims {dims:?} wide {wide} cfg bins 2^{bins_pow}: {}", res.unwrap_err());
        }
    }

    #[test]
    fn floor_log2_matches_log2_floor() {
        // Every power of two from the smallest subnormal up, its f64 and
        // f32 neighbours, and a spread of arbitrary bit patterns.
        let mut vals = Vec::new();
        for e in -1074i32..1024 {
            let p = if e >= -1022 {
                f64::from_bits(((e + 1023) as u64) << 52)
            } else {
                f64::from_bits(1u64 << (e + 1074))
            };
            vals.extend([p, p.next_down(), p.next_up()]);
            let p32 = p as f32;
            if p32.is_finite() && p32 > 0.0 {
                vals.extend([p32.next_down() as f64, p32.next_up() as f64]);
            }
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            vals.push(f64::from_bits(x >> 1));
            vals.push(f32::from_bits((x >> 33) as u32) as f64);
        }
        for a in vals.into_iter().filter(|a| a.is_finite() && *a > 0.0) {
            assert_eq!(floor_log2(a), a.log2().floor() as i32, "{a:e}");
        }
    }

    #[test]
    fn constant_field_rejected() {
        let f = Field::from_vec(Shape::D2(8, 8), vec![2.5f32; 64]);
        assert!(RateModel::pilot(&f, &cfg()).is_err());
    }

    #[test]
    fn precision_ramp_caps_fine_bounds() {
        // At bounds below f32 round-off the model must predict ~raw size,
        // not an ever-growing entropy: the inversion then never chases
        // unreachable ratios into the ulp regime.
        let f = textured(64, 64);
        let model = RateModel::pilot(&f, &cfg()).unwrap();
        let vr = model.value_range();
        let bpv = model.predict_bits_per_value(vr * 1e-12, 1.0);
        assert!(bpv > 30.0, "ulp-regime prediction only {bpv:.2} bpv");
    }
}
