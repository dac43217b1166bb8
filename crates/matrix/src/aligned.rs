//! Element storage that starts on a cache line.
//!
//! The system allocator hands out 16-byte aligned blocks, so a `Vec`
//! of f32 or f64 starts 16, 32 or 48 bytes into a 64-byte line about
//! three times in four — and then every 64-byte vector load of a row,
//! of a packed panel or of a C run straddles two lines (DESIGN.md §8,
//! "Storage starts on a line"). [`AlignedVec`] is a `Vec<T>` reserved
//! with up to [`LINE`] bytes of slack and a window into it that starts
//! on a line: address arithmetic on a safe `Vec`, no custom allocator,
//! no `unsafe`.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Bytes in a cache line: where every allocating constructor starts
/// its window.
pub const LINE: usize = 64;

/// Elements of `T` a buffer reserves beyond its window so that the
/// window can start on a line wherever the allocator put the block:
/// the furthest a `T`-aligned address can be from the next line, in
/// elements (≤ 60 bytes for f32, 56 for f64).
#[must_use]
pub const fn slack<T>() -> usize {
    (LINE - std::mem::align_of::<T>()) / std::mem::size_of::<T>()
}

/// Elements from `ptr` to the next line start, if that is within
/// [`slack`] — always for the element types of this crate, whose
/// sizes divide the line.
#[must_use]
pub fn line_offset<T>(ptr: *const T) -> Option<usize> {
    Some(ptr.align_offset(LINE)).filter(|&offset| offset <= slack::<T>())
}

/// A `Vec<T>` whose elements start on a cache line: the window
/// `buf[offset..]`. Every allocating constructor ([`zeroed`], `clone`)
/// lines the window up; [`from_parts`] and `From<Vec<T>>` keep the
/// caller's buffer and its address. Equality, `Debug` and the slice it
/// dereferences to see the window only.
///
/// [`zeroed`]: Self::zeroed
/// [`from_parts`]: Self::from_parts
pub struct AlignedVec<T> {
    buf: Vec<T>,
    offset: usize,
}

impl<T> AlignedVec<T> {
    /// An empty window; allocates nothing.
    #[must_use]
    pub const fn new() -> Self {
        Self { buf: Vec::new(), offset: 0 }
    }

    /// The window `buf[offset..]` of a caller's buffer, which keeps its
    /// address: the elements before `offset` are slack nothing reads.
    ///
    /// # Panics
    ///
    /// Panics if `offset > buf.len()`.
    #[must_use]
    pub fn from_parts(buf: Vec<T>, offset: usize) -> Self {
        assert!(offset <= buf.len(), "window offset {offset} past a buffer of {}", buf.len());
        Self { buf, offset }
    }

    /// Elements in the window. Read off the `Vec`'s length, so unlike
    /// the slice's `len` it creates no reference to the elements —
    /// which matters to an arena whose ranges other threads are
    /// writing through raw pointers.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() - self.offset
    }

    /// Whether the window is empty; as [`len`](Self::len).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The window's first element, without creating a reference to
    /// the window (as `Vec::as_ptr`).
    #[inline]
    #[must_use]
    pub fn as_ptr(&self) -> *const T {
        self.buf.as_ptr().wrapping_add(self.offset)
    }

    /// The window's first element for writing, without creating a
    /// reference to the window (as `Vec::as_mut_ptr`): pointers taken
    /// earlier into the window stay valid.
    #[inline]
    #[must_use]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.buf.as_mut_ptr().wrapping_add(self.offset)
    }

    /// The window's elements as a `Vec`. Free when the window starts at
    /// the buffer's first element; otherwise the slack in front is
    /// drained, which moves the elements down (no new allocation).
    #[must_use]
    pub fn into_vec(mut self) -> Vec<T> {
        self.buf.drain(..self.offset);
        self.buf
    }
}

impl<T: Clone> AlignedVec<T> {
    /// A copy of `src` starting on a line, written once. Empty `src`
    /// gives the empty window, which allocates nothing.
    fn lined_copy(src: &[T]) -> Self {
        let Some(first) = src.first() else { return Self::new() };
        let mut buf = Vec::with_capacity(src.len() + slack::<T>());
        let offset = line_offset(buf.as_ptr()).unwrap_or(0);
        buf.resize(offset, first.clone());
        buf.extend_from_slice(src);
        Self { buf, offset }
    }

    /// Keeps the first `len` elements and gives the rest of the
    /// allocation back, still starting on a line.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the window.
    pub fn shrink_to(&mut self, len: usize) {
        assert!(len <= self.len(), "shrink_to({len}) on a window of {}", self.len());
        let was_lined = line_offset(self.as_ptr()) == Some(0);
        self.buf.truncate(self.offset + len);
        self.buf.shrink_to_fit();
        // A shrinking realloc keeps its address (glibc splits the
        // block; a moved mapping keeps its page offset), so this copy
        // is the allocator's exception, not the rule.
        if was_lined && line_offset(self.as_ptr()) != Some(0) {
            *self = Self::lined_copy(self);
        }
    }
}

impl<T: Clone + Default> AlignedVec<T> {
    /// `len` elements of `T::default()` (zeros for every scalar type),
    /// starting on a line.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        // One `vec!` so that f32/f64 zeros keep calloc's fast path.
        let mut buf = vec![T::default(); len + slack::<T>()];
        let offset = line_offset(buf.as_ptr()).unwrap_or(0);
        buf.truncate(offset + len);
        Self { buf, offset }
    }
}

impl<T> Deref for AlignedVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.buf[self.offset..]
    }
}

impl<T> DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.offset..]
    }
}

impl<T> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> From<Vec<T>> for AlignedVec<T> {
    fn from(buf: Vec<T>) -> Self {
        Self::from_parts(buf, 0)
    }
}

impl<T: Clone> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::lined_copy(self)
    }
}

impl<T: PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::f16;

    fn lined<T>(v: &AlignedVec<T>) -> bool {
        (v.as_ptr() as usize).is_multiple_of(LINE)
    }

    fn every_len_starts_on_a_line<T: Clone + Default + PartialEq + fmt::Debug>() {
        for len in [0, 1, 3, 15, 16, 17, 1000] {
            let v = AlignedVec::<T>::zeroed(len);
            assert_eq!(v.len(), len);
            assert!(lined(&v), "{} x {len}", std::any::type_name::<T>());
            assert!(v.iter().all(|x| *x == T::default()));
            // An empty clone allocates nothing, so has no line to start on.
            let c = v.clone();
            assert!((len == 0 || lined(&c)) && c == v, "clone of {len}");
        }
    }

    #[test]
    fn allocating_constructors_start_on_a_line() {
        every_len_starts_on_a_line::<f16>();
        every_len_starts_on_a_line::<f32>();
        every_len_starts_on_a_line::<f64>();
        assert_eq!((slack::<f16>(), slack::<f32>(), slack::<f64>()), (31, 15, 7));
    }

    /// Windows at different offsets into their buffers are the same
    /// value: equality and `Debug` see the window only.
    #[test]
    fn the_window_is_the_value() {
        let mut lined = AlignedVec::<f64>::zeroed(5);
        lined.fill(2.5);
        let mut buf = vec![9.0; 3];
        buf.extend_from_slice(&lined);
        let shifted = AlignedVec::from_parts(buf, 3);
        let plain = AlignedVec::from(vec![2.5f64; 5]);
        assert!(shifted == lined && plain == lined);
        assert_eq!(format!("{shifted:?}"), format!("{lined:?}"));
        assert_eq!(shifted.into_vec(), vec![2.5; 5]);
    }

    #[test]
    fn from_parts_keeps_the_callers_buffer() {
        let buf = vec![1u32, 2, 3];
        let ptr = buf.as_ptr();
        let v = AlignedVec::from(buf);
        assert_eq!(v.as_ptr(), ptr);
        let back = v.into_vec();
        assert_eq!(back.as_ptr(), ptr);
    }

    #[test]
    fn shrinking_keeps_the_prefix_on_a_line() {
        let mut v = AlignedVec::<f32>::zeroed(1 << 16);
        v[..4].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        v.shrink_to(4);
        assert!(lined(&v));
        assert_eq!(&v[..], &[1.0, 2.0, 3.0, 4.0]);
        v.shrink_to(0);
        assert!(v.is_empty());
    }
}
