//! The register-block harness the kernel suites share: one tile segment
//! through the public const-generic `mac_loop_cached` at every geometry
//! the block is tested at — not only the two the library runs — over
//! packed and in-place `PanelSpan`s, with no vector level and with the
//! host's, each result `==` the scalar `mac_loop_view` the caller
//! computed.
//!
//! The in-place spans carry the view's own strides, whatever they are
//! (column-major, transposed, a window of a wider parent): the block
//! addresses any strides, and the library's k-stride limit on reading
//! in place is a speed rule, not a correctness one.

use std::ops::Range;
use streamk_core::IterSpace;
use streamk_cpu::{mac_loop_cached, PanelSpan, SimdLevel};
use streamk_matrix::{pack_a_into, pack_b_into, MatrixView, Promote, Scalar};

/// `v`'s lanes `lanes` over `ks`, packed `width` wide. `v` is A, or
/// `Bᵀ` (whose rows are B's columns).
fn packed<In: Copy + Default>(v: &MatrixView<'_, In>, lanes: Range<usize>, ks: Range<usize>, width: usize) -> Vec<In> {
    let mut out = Vec::new();
    pack_a_into(v, lanes, ks, width, &mut out);
    out
}

/// `v` (A, or `Bᵀ`) where it lies, for a block `width` lanes wide: its
/// storage from lane `lanes.start` at k-step `ks.start`, its lane and
/// k strides, and the packed ragged last panel when the tile has one.
/// `None` without strides (block-major storage) or, with `unit_lanes`
/// (B, whose lanes are one vector load), without adjacent lanes.
#[allow(clippy::type_complexity)]
fn in_place<'v, In: Copy + Default>(
    v: &MatrixView<'v, In>,
    lanes: &Range<usize>,
    ks: &Range<usize>,
    width: usize,
    unit_lanes: bool,
) -> Option<(&'v [In], usize, usize, Option<Vec<In>>)> {
    let (lane_stride, k_stride) = (v.row_stride()?, v.col_stride()?);
    if unit_lanes && lane_stride != 1 {
        return None;
    }
    let span = v.strided_span()?;
    let ragged = lanes.len() % width;
    let edge = (ragged != 0).then(|| packed(v, lanes.end - ragged..lanes.end, ks.clone(), width));
    Some((&span[lanes.start * lane_stride + ks.start * k_stride..], lane_stride, k_stride, edge))
}

/// The spans one operand is read through: its packed table, and the
/// operand where it lies when [`in_place`] found a way.
#[allow(clippy::type_complexity)]
fn spans<'s, In>(
    table: &'s [In],
    width: usize,
    ks: &Range<usize>,
    lies: &'s Option<(&'s [In], usize, usize, Option<Vec<In>>)>,
) -> Vec<(&'static str, PanelSpan<'s, In>)> {
    let mut spans = vec![("packed", PanelSpan::packed(table, width, ks.clone()))];
    if let Some((data, lane_stride, k_stride, edge)) = lies {
        spans.push(("in place", PanelSpan::in_place(data, width, *lane_stride, *k_stride, ks.clone(), edge.as_deref())));
    }
    spans
}

/// Local iterations `range` of `tile_idx` at register block
/// `MR × NR`: every pairing of A's and B's sources at both levels
/// must give exactly `reference`.
fn agrees<In, Acc, const MR: usize, const NR: usize>(
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    space: &IterSpace,
    tile_idx: usize,
    (lo, hi): (usize, usize),
    reference: &[Acc],
) -> Result<(), String>
where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let (rows, cols) = space.tile_extents(tile_idx);
    let ks = if lo < hi { space.k_extents(lo).start..space.k_extents(hi - 1).end } else { 0..0 };
    let bt = b.t();
    let a_packed = packed(a, rows.clone(), ks.clone(), MR);
    let mut b_packed = Vec::new();
    pack_b_into(b, ks.clone(), cols.clone(), NR, &mut b_packed);
    let a_in_place = in_place(a, &rows, &ks, MR, false);
    let b_in_place = in_place(&bt, &cols, &ks, NR, true);

    let (a_spans, b_spans) = (spans(&a_packed, MR, &ks, &a_in_place), spans(&b_packed, NR, &ks, &b_in_place));
    for level in [None, Some(SimdLevel::detect())] {
        for (a_from, a_span) in &a_spans {
            for (b_from, b_span) in &b_spans {
                let mut got = vec![Acc::ZERO; reference.len()];
                mac_loop_cached::<In, Acc, MR, NR>(level, a_span.clone(), b_span.clone(), space, tile_idx, lo, hi, &mut got);
                if got != reference {
                    return Err(format!(
                        "{MR}x{NR} at {level:?}, A {a_from}, B {b_from}: tile {tile_idx} [{lo},{hi}) of {} at {}",
                        space.shape(),
                        space.tile()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// [`agrees`] at 4×4, 8×4, 4×8, 8×8, 8×16 and 8×32.
pub fn every_geometry_agrees<In, Acc>(
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    space: &IterSpace,
    tile_idx: usize,
    range: (usize, usize),
    reference: &[Acc],
) -> Result<(), String>
where
    In: Promote<Acc>,
    Acc: Scalar,
{
    agrees::<In, Acc, 4, 4>(a, b, space, tile_idx, range, reference)?;
    agrees::<In, Acc, 8, 4>(a, b, space, tile_idx, range, reference)?;
    agrees::<In, Acc, 4, 8>(a, b, space, tile_idx, range, reference)?;
    agrees::<In, Acc, 8, 8>(a, b, space, tile_idx, range, reference)?;
    agrees::<In, Acc, 8, 16>(a, b, space, tile_idx, range, reference)?;
    agrees::<In, Acc, 8, 32>(a, b, space, tile_idx, range, reference)
}
