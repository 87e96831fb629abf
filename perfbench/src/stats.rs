//! Order statistics, output checks and small helpers shared by the
//! workloads.

use ndfield::{Field, Shape};

/// Median (mean of the two middle values for even counts); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile (`p` in 0..=1); NaN when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Ratio that reads 0 instead of NaN when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Whole-container reads: latency and throughput of each.
#[derive(Default)]
pub struct Reads {
    pub lat: Vec<f64>,
    pub mib_s: Vec<f64>,
}

impl Reads {
    pub fn push(&mut self, bytes: usize, secs: f64) {
        self.lat.push(secs);
        self.mib_s.push(bytes as f64 / MIB / secs);
    }

    pub fn extend(&mut self, other: Reads) {
        self.lat.extend(other.lat);
        self.mib_s.extend(other.mib_s);
    }
}

/// Pointwise-bound check of a fixed-PSNR reconstruction: the shape matches
/// and every finite original sample is within `eb_abs` of its
/// reconstruction. Returns a description of the first violation.
pub fn check_bound(orig: &Field<f32>, got: &Field<f32>, eb_abs: f64) -> Result<(), String> {
    if orig.shape() != got.shape() {
        return Err(format!(
            "shape {:?} came back as {:?}",
            orig.shape(),
            got.shape()
        ));
    }
    let limit = eb_abs * (1.0 + 1e-12);
    for (i, (&x, &y)) in orig.as_slice().iter().zip(got.as_slice()).enumerate() {
        let x = x as f64;
        if x.is_finite() && (x - y as f64).abs() > limit {
            return Err(format!(
                "sample {i}: |{x} - {y}| exceeds the bound {eb_abs}"
            ));
        }
    }
    Ok(())
}

/// Achieved PSNR of a reconstruction (the paper's Eq. 4–5 definition).
pub fn psnr(orig: &Field<f32>, got: &Field<f32>) -> f64 {
    fpsnr_metrics::Distortion::between(orig, got).psnr()
}

pub fn dims(shape: Shape) -> String {
    shape
        .dims()
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}
