//! Shape classes: the keys of the selection table.
//!
//! Memoizing every exact `m × n × k` triple would make every shape a
//! cold start; quantizing each extent to half-octave log₂ buckets
//! (`round(2·log₂ x)`) groups shapes whose best schedule is the same
//! in practice — the decomposition decision is driven by tile counts
//! and wave quantization, both of which move on a log scale — while
//! still separating the strong-scaling tail (small m·n, large k) from
//! the throughput regime.

use streamk_types::{GemmShape, Layout, Precision};

/// A quantized GEMM launch signature: half-octave m/n/k buckets plus
/// the precision, operand layout, and worker count — everything the
/// measured winner may legitimately depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeClass {
    /// `round(2·log₂ m)`.
    pub m_bucket: u32,
    /// `round(2·log₂ n)`.
    pub n_bucket: u32,
    /// `round(2·log₂ k)`.
    pub k_bucket: u32,
    /// Compute precision (dtype of the launch).
    pub precision: Precision,
    /// Storage layout of the A operand.
    pub layout: Layout,
    /// Executor worker count the launch runs on.
    pub workers: u32,
}

/// Half-octave log₂ bucket of a dimension extent (`0` for extents of
/// `0` or `1`).
#[must_use]
pub fn bucket(extent: usize) -> u32 {
    if extent <= 1 {
        return 0;
    }
    let b = (2.0 * (extent as f64).log2()).round();
    b as u32
}

/// The smallest extent that maps to `bucket` — the representative
/// used when reasoning about a class without a concrete shape.
#[must_use]
pub fn bucket_floor(bucket: u32) -> usize {
    (f64::from(bucket) / 2.0).exp2().ceil() as usize
}

impl ShapeClass {
    /// Classifies a launch.
    #[must_use]
    pub fn of(shape: GemmShape, precision: Precision, layout: Layout, workers: usize) -> Self {
        Self {
            m_bucket: bucket(shape.m),
            n_bucket: bucket(shape.n),
            k_bucket: bucket(shape.k),
            precision,
            layout,
            workers: workers as u32,
        }
    }

    /// A representative shape for the class: the bucket floors.
    #[must_use]
    pub fn representative(&self) -> GemmShape {
        GemmShape::new(
            bucket_floor(self.m_bucket),
            bucket_floor(self.n_bucket),
            bucket_floor(self.k_bucket),
        )
    }

    /// The class as a numeric feature vector, the input side of
    /// decision-tree distillation. Buckets stay in log space (that is
    /// where the decision boundaries are axis-aligned), categorical
    /// fields become small integer codes.
    #[must_use]
    pub fn features(&self) -> Vec<f64> {
        vec![
            f64::from(self.m_bucket),
            f64::from(self.n_bucket),
            f64::from(self.k_bucket),
            f64::from(precision_code(self.precision)),
            f64::from(layout_code(self.layout)),
            f64::from(self.workers),
        ]
    }

    /// Compact stable key used by the cache file format.
    #[must_use]
    pub fn encode(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}",
            self.m_bucket,
            self.n_bucket,
            self.k_bucket,
            precision_code(self.precision),
            layout_code(self.layout),
            self.workers
        )
    }

    /// Parses an [`encode`](Self::encode)d key.
    #[must_use]
    pub fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split(':');
        let mut next = || parts.next()?.parse::<u32>().ok();
        let (m, n, k) = (next()?, next()?, next()?);
        let precision = precision_from_code(next()?)?;
        let layout = layout_from_code(next()?)?;
        let workers = next()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Self { m_bucket: m, n_bucket: n, k_bucket: k, precision, layout, workers })
    }
}

impl Ord for ShapeClass {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |c: &Self| {
            (c.m_bucket, c.n_bucket, c.k_bucket, precision_code(c.precision), layout_code(c.layout), c.workers)
        };
        key(self).cmp(&key(other))
    }
}

impl PartialOrd for ShapeClass {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn precision_code(p: Precision) -> u32 {
    match p {
        Precision::Fp64 => 0,
        Precision::Fp16To32 => 1,
    }
}

fn precision_from_code(c: u32) -> Option<Precision> {
    match c {
        0 => Some(Precision::Fp64),
        1 => Some(Precision::Fp16To32),
        _ => None,
    }
}

fn layout_code(l: Layout) -> u32 {
    match l {
        Layout::RowMajor => 0,
        Layout::ColMajor => 1,
    }
}

fn layout_from_code(c: u32) -> Option<Layout> {
    match c {
        0 => Some(Layout::RowMajor),
        1 => Some(Layout::ColMajor),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_half_octave() {
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(4), 4);
        assert_eq!(bucket(1024), 20);
        // Half-octave resolution: ×√2 advances the bucket by one.
        assert_eq!(bucket(1448), 21);
        assert_eq!(bucket(2048), 22);
    }

    #[test]
    fn nearby_shapes_share_a_class_distant_ones_do_not() {
        let class = |m, n, k| {
            ShapeClass::of(GemmShape::new(m, n, k), Precision::Fp64, Layout::RowMajor, 4)
        };
        // Within ±≈10% of 512 the bucket is stable.
        assert_eq!(class(512, 512, 512), class(500, 520, 512));
        // A 2× change in any extent always separates.
        assert_ne!(class(512, 512, 512), class(1024, 512, 512));
        assert_ne!(class(512, 512, 512), class(512, 512, 1024));
    }

    #[test]
    fn precision_layout_and_workers_separate_classes() {
        let s = GemmShape::new(256, 256, 256);
        let base = ShapeClass::of(s, Precision::Fp64, Layout::RowMajor, 4);
        assert_ne!(base, ShapeClass::of(s, Precision::Fp16To32, Layout::RowMajor, 4));
        assert_ne!(base, ShapeClass::of(s, Precision::Fp64, Layout::ColMajor, 4));
        assert_ne!(base, ShapeClass::of(s, Precision::Fp64, Layout::RowMajor, 2));
    }

    #[test]
    fn encode_decode_round_trips() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            for precision in [Precision::Fp64, Precision::Fp16To32] {
                let c = ShapeClass::of(GemmShape::new(384, 96, 2048), precision, layout, 8);
                assert_eq!(ShapeClass::decode(&c.encode()), Some(c));
            }
        }
        assert_eq!(ShapeClass::decode("1:2:3"), None);
        assert_eq!(ShapeClass::decode("1:2:3:9:0:4"), None);
        assert_eq!(ShapeClass::decode("1:2:3:0:0:4:5"), None);
    }

    #[test]
    fn representative_lands_in_its_own_class() {
        for extent in [96usize, 128, 200, 512, 1000, 4096] {
            let shape = GemmShape::new(extent, extent, extent);
            let c = ShapeClass::of(shape, Precision::Fp64, Layout::RowMajor, 4);
            let r = c.representative();
            let c2 = ShapeClass::of(r, Precision::Fp64, Layout::RowMajor, 4);
            assert_eq!(c, c2, "extent {extent}: representative {r} escaped its class");
        }
    }

    #[test]
    fn features_are_stable_width() {
        let c = ShapeClass::of(GemmShape::new(64, 64, 64), Precision::Fp16To32, Layout::ColMajor, 2);
        assert_eq!(c.features().len(), 6);
    }
}
