//! Strassen–Winograd recursion on the Stream-K substrate.
//!
//! The classical executor is O(m·n·k) no matter how well it
//! schedules. This module goes sub-cubic by pairing Strassen's
//! seven-product recursion with the workspace's two burst surfaces
//! (the pairing of "Implementing Strassen's Algorithm with CUTLASS
//! on NVIDIA Volta GPUs", arXiv:1808.07984 — recursion on top of a
//! tiled GEMM substrate):
//!
//! - **Direct path** ([`CpuExecutor::gemm_strassen`]): all `7^d`
//!   leaf sub-products are submitted as **one**
//!   [`gemm_grouped`](CpuExecutor::gemm_grouped) launch. Strassen is
//!   traditionally hard to schedule because its seven products
//!   quantize poorly one at a time; Stream-K's grouped decomposition
//!   concatenates their iteration spaces and splits the *sum* evenly
//!   across the grid, so the seven-product skew is absorbed by
//!   construction. A **single-worker** executor has no skew to
//!   absorb and the grouped grid would only pay per-instance setup,
//!   so it runs the leaves back-to-back through the classical
//!   single-launch path instead — same leaves, same results, no
//!   grouped overhead.
//! - **Service path** ([`GemmService::gemm_strassen`]): the same
//!   leaves go in as one atomically-admitted request group
//!   ([`GemmService::submit_group`]) and complete as a unit through
//!   [`GroupHandle::wait_all`](crate::GroupHandle::wait_all).
//!
//! ## Numerics (opt-in, bounded, never silent)
//!
//! Strassen trades the classical path's bit-exactness for fewer
//! multiplications: it is **opt-in** via
//! [`StrassenConfig`]`{ enabled, max_depth, cutoff }` and falls back
//! to the classical executor below the calibrated `cutoff` (and for
//! `depth == 0`), where the result is *bit-identical* to
//! [`CpuExecutor::gemm`] — the f64 bit-exact gate is untouched. When
//! the recursion does fire, the forward error is bounded per element
//! by the Strassen–Winograd bound (Higham, *Accuracy and Stability
//! of Numerical Algorithms*, §23.2.2):
//!
//! ```text
//! |Ĉ − C|_max  ≤  18^d · (k₀² + 5·k₀) · ε · ‖A‖_max · ‖B‖_max ,
//!               k₀ = ⌈k / 2^d⌉
//! ```
//!
//! implemented by [`strassen_error_bound`] and dominated by the
//! issue-level envelope `c · (m·n·k) · ε · ‖A‖·‖B‖` with `c = 1`
//! for every shape this workspace runs (DESIGN.md §15 derives both
//! and shows the domination). Tests and the `strassen_hybrid` bench
//! section gate every hybrid result against it.
//!
//! ## Workspace contract (§8)
//!
//! All intermediate storage — quadrant operand sums, inner product
//! assemblies — is drawn from a [`StrassenArena`] and recycled, so a
//! warmed arena performs **zero heap allocation** per launch for the
//! recursion's own buffers (the burst's outputs are owned by the
//! grouped executor, whose workers already run on pooled
//! [`Workspace`](crate::Workspace)s). `StrassenArena::fresh_allocs`
//! pins the steady state, exactly like `Workspace::fresh_allocs`.

use crate::executor::CpuExecutor;
use crate::fault::FaultPlan;
use crate::serve::{AdmissionError, GemmService, GroupError, LaunchRequest};
use std::collections::HashMap;
use streamk_core::{Decomposition, GroupedDecomposition, GroupedSpace, TileFixup};
use streamk_matrix::{AlignedVec, Matrix, Promote, Scalar};
use streamk_types::{GemmShape, Layout, TileShape};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Opt-in configuration of the Strassen–Winograd hybrid.
///
/// The default is **disabled**: every launch takes the classical
/// (bit-exact) path until a caller explicitly enables the recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrassenConfig {
    /// Master switch. `false` routes everything classically.
    pub enabled: bool,
    /// Maximum recursion depth (`0` behaves like `enabled: false`
    /// for the launch, which is how the bench measures pure hybrid
    /// dispatch overhead).
    pub max_depth: usize,
    /// Crossover cutoff: recursion only fires while every halved
    /// extent stays `≥ cutoff`, i.e. a shape recurses only when
    /// `min(m, n, k) ≥ 2 · cutoff`. Below that the classical path is
    /// faster (the `strassen_hybrid` bench section measures the
    /// curve this default is calibrated from).
    pub cutoff: usize,
}

impl Default for StrassenConfig {
    fn default() -> Self {
        Self { enabled: false, max_depth: 1, cutoff: 512 }
    }
}

impl StrassenConfig {
    /// An enabled config with the default depth and cutoff.
    #[must_use]
    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::default() }
    }

    /// Sets the maximum recursion depth.
    #[must_use]
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Sets the crossover cutoff (clamped to at least 1).
    #[must_use]
    pub fn with_cutoff(mut self, cutoff: usize) -> Self {
        self.cutoff = cutoff.max(1);
        self
    }

    /// The recursion depth this config actually applies to `shape`:
    /// halve while every extent stays at or above `cutoff`, capped at
    /// [`max_depth`](Self::max_depth). `0` means classical fallback.
    #[must_use]
    pub fn effective_depth(&self, shape: GemmShape) -> usize {
        if !self.enabled {
            return 0;
        }
        let cutoff = self.cutoff.max(1);
        let mut depth = 0;
        let (mut m, mut n, mut k) = (shape.m, shape.n, shape.k);
        while depth < self.max_depth && m.min(n).min(k) >= 2 * cutoff {
            m = m.div_ceil(2);
            n = n.div_ceil(2);
            k = k.div_ceil(2);
            depth += 1;
        }
        depth
    }
}

/// What one hybrid launch actually did — depth taken, leaf count,
/// padding, and whether it fell back to the classical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrassenReport {
    /// Recursion depth used (`0` when the launch fell back).
    pub depth: usize,
    /// Leaf sub-products dispatched in the burst (`7^depth`, or `1`
    /// on fallback).
    pub leaf_products: usize,
    /// `true` when the launch routed classically (disabled config,
    /// `max_depth == 0`, or a shape below the cutoff) — the result
    /// is then bit-identical to [`CpuExecutor::gemm`].
    pub fell_back: bool,
    /// The zero-padded extents the recursion ran on (`(m, n, k)`
    /// rounded up to multiples of `2^depth`; equal to the input
    /// extents on fallback).
    pub padded: (usize, usize, usize),
}

// ---------------------------------------------------------------------------
// Workspace arena
// ---------------------------------------------------------------------------

/// One pool of same-typed, length-keyed buffers with the
/// take-zeroed / recycle discipline of [`crate::Workspace`]. Buffers
/// start on a cache line, so the leaf operands built from them are as
/// aligned as any allocating `Matrix` constructor's.
#[derive(Debug)]
struct BufferPool<T> {
    pools: HashMap<usize, Vec<AlignedVec<T>>>,
    fresh: usize,
}

impl<T: Scalar> BufferPool<T> {
    fn new() -> Self {
        Self { pools: HashMap::new(), fresh: 0 }
    }

    /// A buffer of exactly `len` elements with *unspecified*
    /// contents — for callers that overwrite every element before
    /// reading. Skips the zero-fill pass [`take`](Self::take) pays.
    fn take_full(&mut self, len: usize) -> AlignedVec<T> {
        match self.pools.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => buf,
            None => {
                self.fresh += 1;
                AlignedVec::zeroed(len)
            }
        }
    }

    fn recycle(&mut self, buf: AlignedVec<T>) {
        if !buf.is_empty() {
            self.pools.entry(buf.len()).or_default().push(buf);
        }
    }
}

/// Reusable buffers for the recursion's intermediate sums and
/// assemblies. Keep one arena per call site and the hybrid's own
/// storage is allocation-free once warm:
///
/// - operand-sum matrices (`S`/`T` quadrant combinations) in input
///   precision,
/// - inner-node product assemblies in accumulator precision.
///
/// The leaf burst's *outputs* are allocated by the grouped executor
/// (they are the caller-visible results of that launch) and their
/// storage is recycled into this arena after recombination, so the
/// pools warm up from traffic exactly like
/// [`Workspace`](crate::Workspace)'s partial pool.
#[derive(Debug)]
pub struct StrassenArena<In, Acc> {
    inputs: BufferPool<In>,
    accs: BufferPool<Acc>,
}

impl<In: Scalar, Acc: Scalar> StrassenArena<In, Acc> {
    /// An empty arena; pools grow to their high-water mark on use.
    #[must_use]
    pub fn new() -> Self {
        Self { inputs: BufferPool::new(), accs: BufferPool::new() }
    }

    /// Heap allocations performed since construction (pool misses).
    /// A warmed arena stops incrementing this — the §8 contract.
    #[must_use]
    pub fn fresh_allocs(&self) -> usize {
        self.inputs.fresh + self.accs.fresh
    }
}

impl<In: Scalar, Acc: Scalar> Default for StrassenArena<In, Acc> {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Quadrant views: split / combine / recombine
// ---------------------------------------------------------------------------

/// A signed quadrant term: `(quadrant row, quadrant col, +1/-1)`.
type Term = (usize, usize, f64);

/// Winograd's seven left operands as signed quadrant sums of `A`.
const A_TERMS: [&[Term]; 7] = [
    &[(0, 0, 1.0)],                                       // M1: A11
    &[(0, 1, 1.0)],                                       // M2: A12
    &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, -1.0), (1, 1, -1.0)], // M3: S4 = A11+A12-A21-A22
    &[(1, 1, 1.0)],                                       // M4: A22
    &[(1, 0, 1.0), (1, 1, 1.0)],                          // M5: S1 = A21+A22
    &[(1, 0, 1.0), (1, 1, 1.0), (0, 0, -1.0)],            // M6: S2 = A21+A22-A11
    &[(0, 0, 1.0), (1, 0, -1.0)],                         // M7: S3 = A11-A21
];

/// Winograd's seven right operands as signed quadrant sums of `B`.
const B_TERMS: [&[Term]; 7] = [
    &[(0, 0, 1.0)],                                       // M1: B11
    &[(1, 0, 1.0)],                                       // M2: B21
    &[(1, 1, 1.0)],                                       // M3: B22
    &[(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.0)], // M4: T4 = B11-B12-B21+B22
    &[(0, 1, 1.0), (0, 0, -1.0)],                         // M5: T1 = B12-B11
    &[(0, 0, 1.0), (0, 1, -1.0), (1, 1, 1.0)],            // M6: T2 = B11-B12+B22
    &[(1, 1, 1.0), (0, 1, -1.0)],                         // M7: T3 = B22-B12
];

/// Accumulates `sign · src[quadrant]` into `dst` (a zeroed row-major
/// `half_rows × half_cols` buffer). Reads past `src`'s bounds are the
/// zero padding of odd/ragged extents. Row-major sources take a
/// contiguous-slice fast path; blocked and column-major layouts go
/// through coordinate reads.
fn accumulate_quadrant<T: Scalar>(
    dst: &mut [T],
    src: &Matrix<T>,
    half_rows: usize,
    half_cols: usize,
    qi: usize,
    qj: usize,
    sign: f64,
) {
    let (rows, cols) = (src.rows(), src.cols());
    let (row0, col0) = (qi * half_rows, qj * half_cols);
    let valid_rows = rows.saturating_sub(row0).min(half_rows);
    let valid_cols = cols.saturating_sub(col0).min(half_cols);
    if valid_rows == 0 || valid_cols == 0 {
        return;
    }
    let negate = sign < 0.0;
    if src.layout() == Layout::RowMajor {
        let data = src.as_slice();
        for r in 0..valid_rows {
            let s = &data[(row0 + r) * cols + col0..][..valid_cols];
            let d = &mut dst[r * half_cols..][..valid_cols];
            if negate {
                for (dv, sv) in d.iter_mut().zip(s) {
                    *dv = *dv - *sv;
                }
            } else {
                for (dv, sv) in d.iter_mut().zip(s) {
                    *dv += *sv;
                }
            }
        }
    } else {
        for r in 0..valid_rows {
            for c in 0..valid_cols {
                let v = src.get(row0 + r, col0 + c);
                let slot = &mut dst[r * half_cols + c];
                *slot = if negate { *slot - v } else { *slot + v };
            }
        }
    }
}

/// Assigns `sign · src[quadrant]` over the whole of `dst` — the
/// valid window is copied (or negated), everything outside it is the
/// zero padding. The overwrite form of [`accumulate_quadrant`] for a
/// term list's *first* entry, so the destination never needs a
/// zero-fill pass of its own.
fn write_quadrant<T: Scalar>(
    dst: &mut [T],
    src: &Matrix<T>,
    half_rows: usize,
    half_cols: usize,
    qi: usize,
    qj: usize,
    sign: f64,
) {
    let (rows, cols) = (src.rows(), src.cols());
    let (row0, col0) = (qi * half_rows, qj * half_cols);
    let valid_rows = rows.saturating_sub(row0).min(half_rows);
    let valid_cols = cols.saturating_sub(col0).min(half_cols);
    let negate = sign < 0.0;
    if src.layout() == Layout::RowMajor {
        let data = src.as_slice();
        for r in 0..half_rows {
            let d = &mut dst[r * half_cols..][..half_cols];
            if r < valid_rows && valid_cols > 0 {
                let s = &data[(row0 + r) * cols + col0..][..valid_cols];
                if negate {
                    for (dv, sv) in d[..valid_cols].iter_mut().zip(s) {
                        *dv = T::ZERO - *sv;
                    }
                } else {
                    d[..valid_cols].copy_from_slice(s);
                }
                d[valid_cols..].fill(T::ZERO);
            } else {
                d.fill(T::ZERO);
            }
        }
    } else {
        for r in 0..half_rows {
            for c in 0..half_cols {
                let v = if r < valid_rows && c < valid_cols {
                    src.get(row0 + r, col0 + c)
                } else {
                    T::ZERO
                };
                dst[r * half_cols + c] = if negate { T::ZERO - v } else { v };
            }
        }
    }
}

/// Materializes one signed quadrant combination of `src` as a
/// row-major `half_rows × half_cols` matrix drawn from `pool`. The
/// first term overwrites (no zero-fill), the rest accumulate.
fn combine_quadrants<T: Scalar>(
    pool: &mut BufferPool<T>,
    src: &Matrix<T>,
    half_rows: usize,
    half_cols: usize,
    terms: &[Term],
) -> Matrix<T> {
    let mut buf = pool.take_full(half_rows * half_cols);
    let (&(qi0, qj0, sign0), rest) = terms.split_first().expect("a term list is never empty");
    write_quadrant(&mut buf, src, half_rows, half_cols, qi0, qj0, sign0);
    for &(qi, qj, sign) in rest {
        accumulate_quadrant(&mut buf, src, half_rows, half_cols, qi, qj, sign);
    }
    Matrix::from_storage(half_rows, half_cols, Layout::RowMajor, buf)
}

/// Splits `src` into its four zero-padded quadrants (row-major),
/// relative to padded extents `(pad_rows, pad_cols)` — each quadrant
/// is `pad_rows/2 × pad_cols/2` and reads beyond `src`'s bounds are
/// zero. Public so the proptest suite can pin the lossless
/// split → [`recombine_quadrants`] round-trip on every layout.
///
/// # Panics
///
/// Panics if a padded extent is smaller than `src` or odd.
#[must_use]
pub fn split_quadrants<T: Scalar>(
    src: &Matrix<T>,
    pad_rows: usize,
    pad_cols: usize,
) -> [Matrix<T>; 4] {
    assert!(pad_rows >= src.rows() && pad_cols >= src.cols(), "padding must not truncate");
    assert!(pad_rows.is_multiple_of(2) && pad_cols.is_multiple_of(2), "padded extents must be even");
    let (hr, hc) = (pad_rows / 2, pad_cols / 2);
    let mut pool = BufferPool::new();
    [(0, 0), (0, 1), (1, 0), (1, 1)]
        .map(|(qi, qj)| combine_quadrants(&mut pool, src, hr, hc, &[(qi, qj, 1.0)]))
}

/// Reassembles four quadrants into a `rows × cols` matrix of
/// `layout`, cropping the zero padding. Inverse of
/// [`split_quadrants`] — the round-trip is lossless (bit-exact) for
/// every layout, which the proptest suite pins.
///
/// # Panics
///
/// Panics if the quadrants' extents disagree or cannot cover
/// `rows × cols`.
#[must_use]
pub fn recombine_quadrants<T: Scalar>(
    quads: &[Matrix<T>; 4],
    rows: usize,
    cols: usize,
    layout: Layout,
) -> Matrix<T> {
    let (hr, hc) = (quads[0].rows(), quads[0].cols());
    for q in quads {
        assert!(q.rows() == hr && q.cols() == hc, "quadrant extents must agree");
    }
    assert!(2 * hr >= rows && 2 * hc >= cols, "quadrants must cover the output");
    let mut out = Matrix::<T>::zeros(rows, cols, layout);
    for r in 0..rows {
        let (qi, qr) = (r / hr, r % hr);
        for c in 0..cols {
            let (qj, qc) = (c / hc, c % hc);
            out.set(r, c, quads[qi * 2 + qj].get(qr, qc));
        }
    }
    out
}

/// `dst += src`, elementwise over the raw storage.
fn add_assign<T: Scalar>(dst: &mut Matrix<T>, src: &Matrix<T>) {
    for (d, s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += *s;
    }
}

/// `dst = src − dst`, elementwise over the raw storage.
fn sub_from<T: Scalar>(dst: &mut Matrix<T>, src: &Matrix<T>) {
    for (d, s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d = *s - *d;
    }
}

/// Winograd recombination: folds the seven products `M1..M7` (each
/// `hm × hn`, row-major) into the four C quadrants **in place** —
/// zero extra temporaries. Returns `(C11, C12, C21, C22)`; the three
/// spent products' storage is recycled into `pool`.
fn winograd_recombine<Acc: Scalar>(
    products: [Matrix<Acc>; 7],
    pool: &mut BufferPool<Acc>,
) -> [Matrix<Acc>; 4] {
    let [mut m1, m2, m3, mut m4, m5, mut m6, mut m7] = products;
    add_assign(&mut m6, &m1); // U2 = M1 + M6
    add_assign(&mut m7, &m6); // U3 = U2 + M7
    sub_from(&mut m4, &m7); //   C21 = U3 − M4
    add_assign(&mut m7, &m5); // C22 = U3 + M5
    add_assign(&mut m6, &m5); // U4 = U2 + M5
    add_assign(&mut m6, &m3); // C12 = U4 + M3
    add_assign(&mut m1, &m2); // C11 = M1 + M2
    pool.recycle(m2.into_storage());
    pool.recycle(m3.into_storage());
    pool.recycle(m5.into_storage());
    [m1, m6, m4, m7] // C11, C12, C21, C22
}

/// Assembles four `hm × hn` quadrants into one row-major
/// `2hm × 2hn` matrix drawn from `pool`, recycling the quadrants.
fn assemble_from_pool<Acc: Scalar>(
    quads: [Matrix<Acc>; 4],
    pool: &mut BufferPool<Acc>,
) -> Matrix<Acc> {
    let (hm, hn) = (quads[0].rows(), quads[0].cols());
    let buf = pool.take_full(4 * hm * hn);
    assemble_into(quads, pool, buf)
}

/// Tiles the four C quadrants into `buf` (every element written, so
/// the buffer's prior contents are irrelevant) and recycles their
/// storage. `buf` may come from the pool or be the launch's own
/// output allocation — the root of the recursion assembles straight
/// into the latter when no crop is needed.
fn assemble_into<Acc: Scalar>(
    quads: [Matrix<Acc>; 4],
    pool: &mut BufferPool<Acc>,
    mut buf: AlignedVec<Acc>,
) -> Matrix<Acc> {
    let (hm, hn) = (quads[0].rows(), quads[0].cols());
    debug_assert_eq!(buf.len(), 4 * hm * hn);
    {
        let full = 2 * hn;
        for (idx, q) in quads.iter().enumerate() {
            let (qi, qj) = (idx / 2, idx % 2);
            let src = q.as_slice();
            for r in 0..hm {
                buf[(qi * hm + r) * full + qj * hn..][..hn]
                    .copy_from_slice(&src[r * hn..][..hn]);
            }
        }
    }
    for q in quads {
        pool.recycle(q.into_storage());
    }
    Matrix::from_storage(2 * hm, 2 * hn, Layout::RowMajor, buf)
}

/// Crops a row-major padded product down to `rows × cols` in
/// `layout` — the final output handed back to the caller (freshly
/// allocated; everything the caller keeps must not come from the
/// arena).
fn crop_to_output<Acc: Scalar>(
    padded: &Matrix<Acc>,
    rows: usize,
    cols: usize,
    layout: Layout,
) -> Matrix<Acc> {
    let mut out = Matrix::<Acc>::zeros(rows, cols, layout);
    if layout == Layout::RowMajor {
        let src = padded.as_slice();
        let full = padded.cols();
        let dst = out.as_mut_slice();
        for r in 0..rows {
            dst[r * cols..][..cols].copy_from_slice(&src[r * full..][..cols]);
        }
    } else {
        for r in 0..rows {
            for c in 0..cols {
                out.set(r, c, padded.get(r, c));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Recursion plan: expand to leaves, one burst, recombine bottom-up
// ---------------------------------------------------------------------------

/// The recombination tree over the flat leaf burst.
enum Node {
    /// Index into the leaf operand/product list.
    Leaf(usize),
    /// Seven children in Winograd `M1..M7` order.
    Inner(Box<[Node; 7]>),
}

/// A fully-expanded hybrid launch: every leaf operand pair (in
/// depth-first `M1..M7` order) plus the tree that recombines their
/// products. All leaves share one shape — `7^depth` instances of
/// `(m, n, k) / 2^depth` after padding — which is what lets the
/// direct path dispatch them as a single uniform grouped launch.
struct Plan<In> {
    pairs: Vec<(Matrix<In>, Matrix<In>)>,
    root: Node,
    leaf_shape: GemmShape,
}

/// Depth-first expansion: build the 14 signed quadrant sums of this
/// level, recurse (or emit leaves), and recycle intermediate operand
/// storage as soon as its children are built.
#[allow(clippy::too_many_arguments)]
fn expand<In: Scalar>(
    a: &Matrix<In>,
    b: &Matrix<In>,
    lm: usize,
    ln: usize,
    lk: usize,
    depth: usize,
    inputs: &mut BufferPool<In>,
    pairs: &mut Vec<(Matrix<In>, Matrix<In>)>,
) -> Node {
    debug_assert!(depth >= 1);
    let (hm, hn, hk) = (lm / 2, ln / 2, lk / 2);
    let mut children = Vec::with_capacity(7);
    for p in 0..7 {
        let a_op = combine_quadrants(inputs, a, hm, hk, A_TERMS[p]);
        let b_op = combine_quadrants(inputs, b, hk, hn, B_TERMS[p]);
        if depth == 1 {
            pairs.push((a_op, b_op));
            children.push(Node::Leaf(pairs.len() - 1));
        } else {
            let child = expand(&a_op, &b_op, hm, hn, hk, depth - 1, inputs, pairs);
            inputs.recycle(a_op.into_storage());
            inputs.recycle(b_op.into_storage());
            children.push(child);
        }
    }
    let children: [Node; 7] = children.try_into().unwrap_or_else(|_| unreachable!("seven products"));
    Node::Inner(Box::new(children))
}

fn make_plan<In: Scalar>(
    a: &Matrix<In>,
    b: &Matrix<In>,
    pm: usize,
    pn: usize,
    pk: usize,
    depth: usize,
    inputs: &mut BufferPool<In>,
) -> Plan<In> {
    let mut pairs = Vec::with_capacity(7usize.pow(depth as u32));
    let root = expand(a, b, pm, pn, pk, depth, inputs, &mut pairs);
    let scale = 1usize << depth;
    Plan { pairs, root, leaf_shape: GemmShape::new(pm / scale, pn / scale, pk / scale) }
}

/// Bottom-up recombination of the leaf products along the tree.
fn recombine<Acc: Scalar>(
    node: &Node,
    products: &mut [Option<Matrix<Acc>>],
    accs: &mut BufferPool<Acc>,
) -> Matrix<Acc> {
    match node {
        Node::Leaf(i) => products[*i].take().expect("leaf product consumed once"),
        Node::Inner(children) => {
            let ms: [Matrix<Acc>; 7] = std::array::from_fn(|p| recombine(&children[p], products, accs));
            let quads = winograd_recombine(ms, accs);
            assemble_from_pool(quads, accs)
        }
    }
}

/// The Stream-K decomposition a leaf sub-product runs under on the
/// service path (the direct path uses one grouped grid instead).
/// Falls back to data-parallel when the Stream-K fixup structure
/// would need more co-resident CTAs than `workers` — the same
/// residency guard every other entry point applies.
#[must_use]
pub fn leaf_decomposition(shape: GemmShape, tile: TileShape, workers: usize) -> Decomposition {
    let workers = workers.max(1);
    let d = Decomposition::stream_k(shape, tile, workers);
    let max_cover = d.fixups().iter().map(TileFixup::covering_ctas).max().unwrap_or(1);
    if max_cover > workers {
        Decomposition::data_parallel(shape, tile)
    } else {
        d
    }
}

fn round_up(v: usize, to: usize) -> usize {
    v.div_ceil(to) * to
}

// ---------------------------------------------------------------------------
// Error bound
// ---------------------------------------------------------------------------

/// Machine epsilon (unit roundoff `u = 2^{-p}` with `1 + u` rounding
/// to `1`) of `T`, derived through [`Scalar`] arithmetic so callers
/// need no per-type constant: `1.19e-7` for `f32`, `2.22e-16` for
/// `f64`.
#[must_use]
pub fn machine_epsilon<T: Scalar>() -> f64 {
    let mut eps = 1.0f64;
    while eps > 1e-40 {
        let half = eps / 2.0;
        if T::ONE + T::from_f64(half) == T::ONE {
            return eps;
        }
        eps = half;
    }
    eps
}

/// Per-element forward-error bound of a depth-`d` Strassen–Winograd
/// product against the exact result:
///
/// ```text
/// 18^d · (k₀² + 5·k₀) · ε · amax · bmax ,   k₀ = ⌈k / 2^d⌉
/// ```
///
/// (Higham §23.2.2; `d = 0` degenerates to the classical
/// `(k² + 5k)·ε` envelope, so one formula gates both paths). When
/// comparing a hybrid result against a *computed* classical
/// reference, gate on the sum of the two bounds — both sides carry
/// rounding error. DESIGN.md §15 derives the bound and shows it is
/// dominated by the issue-level `c·(m·n·k)·ε·amax·bmax` envelope
/// with `c = 1` whenever the leaf extent `k₀ ≥ 32` and `d ≤ 4` —
/// which covers every shape the cutoff (default 512) lets recurse.
#[must_use]
pub fn strassen_error_bound(
    shape: GemmShape,
    depth: usize,
    amax: f64,
    bmax: f64,
    eps: f64,
) -> f64 {
    let k0 = shape.k.div_ceil(1 << depth) as f64;
    18f64.powi(depth as i32) * (k0 * k0 + 5.0 * k0) * eps * amax * bmax
}

/// Largest absolute element of `m` (the `‖·‖_max` the bound needs).
#[must_use]
pub fn max_abs<T: Scalar>(m: &Matrix<T>) -> f64 {
    m.as_slice().iter().map(|v| v.to_f64().abs()).fold(0.0, f64::max)
}

// ---------------------------------------------------------------------------
// Direct path
// ---------------------------------------------------------------------------

impl CpuExecutor {
    /// Strassen–Winograd hybrid `C = A · B` with a private arena —
    /// see [`gemm_strassen_with_arena`](Self::gemm_strassen_with_arena)
    /// for the allocation-free steady state.
    #[must_use]
    pub fn gemm_strassen<In, Acc>(
        &self,
        a: &Matrix<In>,
        b: &Matrix<In>,
        tile: TileShape,
        config: &StrassenConfig,
    ) -> (Matrix<Acc>, StrassenReport)
    where
        In: Promote<Acc> + Scalar,
        Acc: Scalar,
    {
        let mut arena = StrassenArena::new();
        self.gemm_strassen_with_arena(a, b, tile, config, &mut arena)
    }

    /// Strassen–Winograd hybrid `C = A · B`: the `7^d` leaf
    /// sub-products of the recursion are dispatched as **one**
    /// grouped Stream-K launch
    /// ([`gemm_grouped`](Self::gemm_grouped)), whose work-centric
    /// split absorbs the seven-product skew; quadrant operand sums
    /// and inner assemblies live in `arena` (allocation-free once
    /// warm). Shapes below the config's cutoff — and any launch with
    /// the hybrid disabled — fall back to the classical executor and
    /// return a bit-identical result to [`gemm`](Self::gemm).
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes disagree (`A` is `m × k`, `B`
    /// must be `k × n`).
    #[must_use]
    pub fn gemm_strassen_with_arena<In, Acc>(
        &self,
        a: &Matrix<In>,
        b: &Matrix<In>,
        tile: TileShape,
        config: &StrassenConfig,
        arena: &mut StrassenArena<In, Acc>,
    ) -> (Matrix<Acc>, StrassenReport)
    where
        In: Promote<Acc> + Scalar,
        Acc: Scalar,
    {
        assert_eq!(a.cols(), b.rows(), "A is m x k, B must be k x n");
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let depth = config.effective_depth(shape);
        if depth == 0 {
            let c = self.gemm(a, b, &leaf_decomposition(shape, tile, self.threads()));
            let report = StrassenReport {
                depth: 0,
                leaf_products: 1,
                fell_back: true,
                padded: (shape.m, shape.n, shape.k),
            };
            return (c, report);
        }

        let scale = 1usize << depth;
        let (pm, pn, pk) =
            (round_up(shape.m, scale), round_up(shape.n, scale), round_up(shape.k, scale));
        let plan = make_plan(a, b, pm, pn, pk, depth, &mut arena.inputs);

        let (a_ops, b_ops): (Vec<Matrix<In>>, Vec<Matrix<In>>) = plan.pairs.into_iter().unzip();
        let products: Vec<Matrix<Acc>> = if self.threads() <= 1 {
            // One worker has no seven-product skew to absorb — the
            // grouped grid would only pay per-instance cache setup
            // (measurably ~10-15% on the burst). Run the leaves
            // back-to-back through the classical single-launch path
            // instead; the grouped burst is the multi-worker form.
            let leaf = leaf_decomposition(plan.leaf_shape, tile, 1);
            a_ops.iter().zip(&b_ops).map(|(la, lb)| self.gemm(la, lb, &leaf)).collect()
        } else {
            let shapes: Vec<GemmShape> = vec![plan.leaf_shape; a_ops.len()];
            let space = GroupedSpace::uniform(plan.leaf_shape, a_ops.len(), tile);
            let decomp = GroupedDecomposition::stream_k(space, self.threads());
            let max_cover =
                decomp.fixups().iter().map(TileFixup::covering_ctas).max().unwrap_or(1);
            let decomp = if max_cover > self.threads() {
                GroupedDecomposition::data_parallel(GroupedSpace::new(&shapes, tile))
            } else {
                decomp
            };
            self.gemm_grouped(&a_ops, &b_ops, &decomp)
        };
        for op in a_ops.into_iter().chain(b_ops) {
            arena.inputs.recycle(op.into_storage());
        }

        let mut slots: Vec<Option<Matrix<Acc>>> = products.into_iter().map(Some).collect();
        let leaf_products = slots.len();
        let c = match &plan.root {
            Node::Leaf(_) => unreachable!("a depth >= 1 recursion always has an inner root"),
            Node::Inner(children) => {
                let ms: [Matrix<Acc>; 7] =
                    std::array::from_fn(|p| recombine(&children[p], &mut slots, &mut arena.accs));
                let quads = winograd_recombine(ms, &mut arena.accs);
                if (pm, pn) == (shape.m, shape.n) && a.layout() == Layout::RowMajor {
                    // No padding to crop and the output layout is the
                    // assembly's native one — assemble straight into
                    // the launch's own output allocation (the one
                    // buffer per launch that must leave the arena).
                    assemble_into(quads, &mut arena.accs, AlignedVec::zeroed(pm * pn))
                } else {
                    let padded = assemble_from_pool(quads, &mut arena.accs);
                    let c = crop_to_output(&padded, shape.m, shape.n, a.layout());
                    arena.accs.recycle(padded.into_storage());
                    c
                }
            }
        };
        let report =
            StrassenReport { depth, leaf_products, fell_back: false, padded: (pm, pn, pk) };
        (c, report)
    }
}

// ---------------------------------------------------------------------------
// Service path
// ---------------------------------------------------------------------------

/// Why a service-path hybrid launch failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StrassenServeError {
    /// The burst was refused at submission — no member was queued.
    Admission(
        /// The underlying admission error.
        AdmissionError,
    ),
    /// An admitted member failed; its siblings were cancelled.
    Group(
        /// The group failure (member index, id, cause).
        GroupError,
    ),
}

impl std::fmt::Display for StrassenServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrassenServeError::Admission(e) => write!(f, "strassen burst refused: {e}"),
            StrassenServeError::Group(e) => write!(f, "strassen burst failed: {e}"),
        }
    }
}

impl std::error::Error for StrassenServeError {}

impl<In, Acc> GemmService<In, Acc>
where
    In: Promote<Acc> + Scalar,
    Acc: Scalar,
{
    /// Strassen–Winograd hybrid through the service: the `7^d` leaf
    /// sub-products are submitted as **one** atomically-admitted
    /// request group ([`submit_group`](Self::submit_group)) and
    /// awaited as a unit, so the burst interleaves with unrelated
    /// tenants under the service's admission and deadline
    /// discipline. Below the cutoff the launch degrades to a single
    /// classical request (bit-identical to the classical path).
    ///
    /// # Errors
    ///
    /// [`StrassenServeError::Admission`] when the burst is refused
    /// outright, [`StrassenServeError::Group`] when a member fails
    /// mid-flight (its siblings are cancelled).
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes disagree.
    pub fn gemm_strassen(
        &self,
        a: &Matrix<In>,
        b: &Matrix<In>,
        tile: TileShape,
        config: &StrassenConfig,
    ) -> Result<(Matrix<Acc>, StrassenReport), StrassenServeError> {
        self.gemm_strassen_with_faults(a, b, tile, config, &[])
    }

    /// [`gemm_strassen`](Self::gemm_strassen) with seeded CTA fault
    /// plans attached to selected leaf sub-products —
    /// `(leaf index, plan)` pairs, the §7 chaos discipline pointed
    /// at the middle of a hybrid burst. Owner-side recovery must
    /// mask every injected fault, so the result is identical to the
    /// fault-free burst; tests pin exactly that.
    ///
    /// # Errors
    ///
    /// As [`gemm_strassen`](Self::gemm_strassen).
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes disagree.
    pub fn gemm_strassen_with_faults(
        &self,
        a: &Matrix<In>,
        b: &Matrix<In>,
        tile: TileShape,
        config: &StrassenConfig,
        faults: &[(usize, FaultPlan)],
    ) -> Result<(Matrix<Acc>, StrassenReport), StrassenServeError> {
        assert_eq!(a.cols(), b.rows(), "A is m x k, B must be k x n");
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let depth = config.effective_depth(shape);
        let workers = self.workers();

        if depth == 0 {
            let decomp = leaf_decomposition(shape, tile, workers);
            let mut request = LaunchRequest::new(a.clone(), b.clone(), decomp);
            if let Some((_, plan)) = faults.iter().find(|(i, _)| *i == 0) {
                request = request.with_cta_faults(plan.clone());
            }
            let handle = self.submit(request).map_err(StrassenServeError::Admission)?;
            let (c, _stats) = handle.wait().map_err(|error| {
                StrassenServeError::Group(GroupError {
                    member: 0,
                    id: 0,
                    error,
                    cancelled_siblings: 0,
                })
            })?;
            let report = StrassenReport {
                depth: 0,
                leaf_products: 1,
                fell_back: true,
                padded: (shape.m, shape.n, shape.k),
            };
            return Ok((c, report));
        }

        let scale = 1usize << depth;
        let (pm, pn, pk) =
            (round_up(shape.m, scale), round_up(shape.n, scale), round_up(shape.k, scale));
        let mut inputs = BufferPool::new();
        let plan = make_plan(a, b, pm, pn, pk, depth, &mut inputs);
        let leaf_decomp = leaf_decomposition(plan.leaf_shape, tile, workers);

        let requests: Vec<LaunchRequest<In>> = plan
            .pairs
            .into_iter()
            .enumerate()
            .map(|(i, (a_op, b_op))| {
                let mut request = LaunchRequest::new(a_op, b_op, leaf_decomp.clone());
                if let Some((_, fault_plan)) = faults.iter().find(|(fi, _)| *fi == i) {
                    request = request.with_cta_faults(fault_plan.clone());
                }
                request
            })
            .collect();
        let leaf_products = requests.len();

        let group = self.submit_group(requests).map_err(StrassenServeError::Admission)?;
        let outcomes = group.wait_all().map_err(StrassenServeError::Group)?;

        let mut slots: Vec<Option<Matrix<Acc>>> =
            outcomes.into_iter().map(|(c, _stats)| Some(c)).collect();
        let mut accs = BufferPool::new();
        let padded = recombine(&plan.root, &mut slots, &mut accs);
        let c = crop_to_output(&padded, shape.m, shape.n, a.layout());
        let report =
            StrassenReport { depth, leaf_products, fell_back: false, padded: (pm, pn, pk) };
        Ok((c, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operands(shape: GemmShape, seed: u64) -> (Matrix<f32>, Matrix<f32>) {
        let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, Layout::RowMajor, seed);
        let b = Matrix::<f32>::random::<f32>(shape.k, shape.n, Layout::RowMajor, seed + 1);
        (a, b)
    }

    fn classical(e: &CpuExecutor, a: &Matrix<f32>, b: &Matrix<f32>, tile: TileShape) -> Matrix<f32> {
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        e.gemm(a, b, &leaf_decomposition(shape, tile, e.threads()))
    }

    #[test]
    fn effective_depth_respects_cutoff_and_cap() {
        let cfg = StrassenConfig::enabled().with_cutoff(64).with_max_depth(3);
        assert_eq!(cfg.effective_depth(GemmShape::new(512, 512, 512)), 3);
        assert_eq!(cfg.effective_depth(GemmShape::new(256, 256, 256)), 2);
        assert_eq!(cfg.effective_depth(GemmShape::new(128, 256, 256)), 1);
        assert_eq!(cfg.effective_depth(GemmShape::new(100, 256, 256)), 0);
        assert_eq!(StrassenConfig::default().effective_depth(GemmShape::new(4096, 4096, 4096)), 0);
        let capped = StrassenConfig::enabled().with_cutoff(64).with_max_depth(1);
        assert_eq!(capped.effective_depth(GemmShape::new(512, 512, 512)), 1);
    }

    #[test]
    fn disabled_or_small_shapes_are_bit_exact_classical() {
        let e = CpuExecutor::with_threads(2);
        let tile = TileShape::new(16, 16, 8);
        let shape = GemmShape::new(96, 80, 64);
        let (a, b) = operands(shape, 7);
        let reference = classical(&e, &a, &b, tile);
        for cfg in [
            StrassenConfig::default(),
            StrassenConfig::enabled().with_cutoff(512),
            StrassenConfig::enabled().with_max_depth(0),
        ] {
            let (c, report): (Matrix<f32>, _) = e.gemm_strassen(&a, &b, tile, &cfg);
            assert!(report.fell_back);
            assert_eq!(report.depth, 0);
            assert_eq!(c.max_abs_diff(&reference), 0.0, "fallback must be bit-exact");
        }
    }

    #[test]
    fn one_level_hybrid_is_within_the_bound() {
        let e = CpuExecutor::with_threads(2);
        let tile = TileShape::new(16, 16, 8);
        let shape = GemmShape::new(128, 128, 128);
        let (a, b) = operands(shape, 21);
        let cfg = StrassenConfig::enabled().with_cutoff(32).with_max_depth(1);
        let (c, report): (Matrix<f32>, _) = e.gemm_strassen(&a, &b, tile, &cfg);
        assert!(!report.fell_back);
        assert_eq!(report.depth, 1);
        assert_eq!(report.leaf_products, 7);
        let reference = classical(&e, &a, &b, tile);
        let eps = machine_epsilon::<f32>();
        let bound = strassen_error_bound(shape, 1, max_abs(&a), max_abs(&b), eps)
            + strassen_error_bound(shape, 0, max_abs(&a), max_abs(&b), eps);
        let err = c.max_abs_diff(&reference);
        assert!(err <= bound, "err {err} exceeds bound {bound}");
        assert!(err > 0.0 || shape.k < 4, "hybrid should differ from classical in the last bits");
    }

    #[test]
    fn deep_recursion_and_odd_shapes_stay_within_the_bound() {
        let e = CpuExecutor::with_threads(2);
        let tile = TileShape::new(16, 16, 8);
        for (shape, depth) in [
            (GemmShape::new(96, 96, 96), 2),
            (GemmShape::new(101, 97, 103), 2),
            (GemmShape::new(67, 129, 65), 1),
        ] {
            let (a, b) = operands(shape, 31 + shape.m as u64);
            let cfg = StrassenConfig::enabled().with_cutoff(16).with_max_depth(depth);
            let (c, report): (Matrix<f32>, _) = e.gemm_strassen(&a, &b, tile, &cfg);
            assert!(!report.fell_back, "{shape:?}");
            assert_eq!(report.depth, depth, "{shape:?}");
            assert_eq!(report.leaf_products, 7usize.pow(depth as u32));
            let scale = 1 << depth;
            assert!(report.padded.0 % scale == 0 && report.padded.1 % scale == 0);
            let reference = classical(&e, &a, &b, tile);
            let eps = machine_epsilon::<f32>();
            let bound = strassen_error_bound(shape, depth, max_abs(&a), max_abs(&b), eps)
                + strassen_error_bound(shape, 0, max_abs(&a), max_abs(&b), eps);
            let err = c.max_abs_diff(&reference);
            assert!(err <= bound, "{shape:?}: err {err} exceeds bound {bound}");
        }
    }

    #[test]
    fn f64_hybrid_matches_f64_classical_tightly() {
        let e = CpuExecutor::with_threads(1);
        let tile = TileShape::new(16, 16, 8);
        let shape = GemmShape::new(64, 64, 64);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 5);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 6);
        let cfg = StrassenConfig::enabled().with_cutoff(16).with_max_depth(1);
        let (c, _): (Matrix<f64>, _) = e.gemm_strassen(&a, &b, tile, &cfg);
        let reference: Matrix<f64> =
            e.gemm(&a, &b, &leaf_decomposition(shape, tile, e.threads()));
        let eps = machine_epsilon::<f64>();
        let bound = 2.0 * strassen_error_bound(shape, 1, max_abs(&a), max_abs(&b), eps);
        assert!(c.max_abs_diff(&reference) <= bound);
    }

    #[test]
    fn arena_reaches_allocation_free_steady_state() {
        let e = CpuExecutor::with_threads(2);
        let tile = TileShape::new(16, 16, 8);
        let shape = GemmShape::new(96, 96, 96);
        let (a, b) = operands(shape, 77);
        let cfg = StrassenConfig::enabled().with_cutoff(16).with_max_depth(2);
        let mut arena = StrassenArena::<f32, f32>::new();
        let (c1, _) = e.gemm_strassen_with_arena(&a, &b, tile, &cfg, &mut arena);
        let warm = arena.fresh_allocs();
        assert!(warm > 0, "first launch must populate the pools");
        for _ in 0..3 {
            let (c, _) = e.gemm_strassen_with_arena(&a, &b, tile, &cfg, &mut arena);
            assert_eq!(c.max_abs_diff(&c1), 0.0, "same launch must be deterministic");
        }
        assert_eq!(arena.fresh_allocs(), warm, "steady state must not allocate");
    }

    #[test]
    fn machine_epsilon_matches_the_types() {
        assert_eq!(machine_epsilon::<f32>(), f64::from(f32::EPSILON));
        assert_eq!(machine_epsilon::<f64>(), f64::EPSILON);
    }

    #[test]
    fn error_bound_is_dominated_by_the_mnk_envelope() {
        // DESIGN.md §15: 18^d (k0² + 5 k0) ≤ m·n·k with c = 1 for
        // every shape the cutoff lets recurse (leaf extent ≥ 32,
        // d ≤ 4 — equivalently 2.25^d · (k0 + 5) ≤ k0²).
        let eps = 1.0; // scale-free comparison
        for d in 0..5usize {
            for side in [32usize << d, 64 << d, 512 << d] {
                let shape = GemmShape::new(side, side, side);
                let tight = strassen_error_bound(shape, d, 1.0, 1.0, eps);
                let envelope = (shape.m * shape.n * shape.k) as f64;
                assert!(tight <= envelope, "d={d} side={side}: {tight} > {envelope}");
            }
        }
    }
}
