//! The one section type every cached arena is cut into: a run of values,
//! each stored little-endian at the narrowest of 0, 1, 2 or 4 bytes that
//! holds the bound it was written under, fixed before it is written
//! (Log(Graph)'s point: an id takes the width its bound needs, not a
//! word). A section starts at a multiple of its width, so each value is
//! one aligned load.

use std::ops::Range;

/// Bytes one value of a [`Section`] takes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Width {
    /// Every value is 0: nothing is stored.
    #[default]
    Zero = 0,
    /// Values below 2⁸.
    One = 1,
    /// Values below 2¹⁶.
    Two = 2,
    /// Values below 2³².
    Four = 4,
}

impl Width {
    /// The narrowest width that holds every value below `bound`.
    pub const fn below(bound: u64) -> Self {
        match bound {
            0..=1 => Width::Zero,
            2..=0x100 => Width::One,
            0x101..=0x1_0000 => Width::Two,
            _ => Width::Four,
        }
    }

    /// Bytes per value.
    pub const fn bytes(self) -> usize {
        self as usize
    }

    /// Where `len` values at this width lie after byte `end` of an arena.
    pub(crate) fn after(self, end: usize, len: usize) -> Range<usize> {
        let start = end.next_multiple_of(self.bytes().max(1));
        start..start + len * self.bytes()
    }
}

/// `len` values at one [`Width`], end to end in `bytes`: owned
/// (`B = Box<[u8]>`, a section that is its own arena) or borrowed from an
/// arena (`B = &[u8]`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Section<B> {
    bytes: B,
    len: u32,
    width: Width,
}

impl<'a> Section<&'a [u8]> {
    /// The `len` values at `width` in `arena[at]` (empty past its end).
    pub(crate) fn cut(arena: &'a [u8], at: Range<usize>, len: u32, width: Width) -> Self {
        match arena.get(at) {
            Some(bytes) => Self { bytes, len, width },
            None => Self::default(),
        }
    }

    /// Values `range` of this section (empty past its end).
    pub fn slice(self, range: Range<usize>) -> Self {
        let (w, len) = (self.width.bytes(), range.len() as u32);
        match range.end <= self.len() {
            true => Self::cut(self.bytes, range.start * w..range.end * w, len, self.width),
            false => Self::default(),
        }
    }

    /// Where `v` stands in this section, which ascends, if it is there.
    pub fn position(self, v: u32) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid)?.cmp(&v) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return Some(mid),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    /// Whether this section, which ascends, holds `v`.
    pub fn contains(self, v: u32) -> bool {
        self.position(v).is_some()
    }

    /// The values, in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = u32> + DoubleEndedIterator + Clone + 'a {
        (0..self.len()).map(move |i| self.get(i).unwrap_or_default())
    }
}

impl<B: AsRef<[u8]>> Section<B> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether it holds no value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value `i`, with one load of its width.
    #[inline]
    pub fn get(&self, i: usize) -> Option<u32> {
        let bytes = self.bytes.as_ref();
        match self.width {
            _ if i >= self.len() => None,
            Width::Zero => load_at::<0>(bytes, i),
            Width::One => load_at::<1>(bytes, i),
            Width::Two => load_at::<2>(bytes, i),
            Width::Four => load_at::<4>(bytes, i),
        }
    }

    /// The last value.
    pub fn last(&self) -> Option<u32> {
        self.get(self.len().checked_sub(1)?)
    }
}

impl Section<Box<[u8]>> {
    /// An arena of `len` values at `width`, as [`push`] wrote them.
    pub(crate) fn owned(bytes: Vec<u8>, len: u32, width: Width) -> Self {
        Self {
            bytes: bytes.into_boxed_slice(),
            len,
            width,
        }
    }

    /// Bytes allocated for it.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// Makes room at the end of `arena` for `len` values at `width`, from a
/// multiple of the width on: one allocation at most, none if the arena was
/// sized for them.
pub(crate) fn reserve(arena: &mut Vec<u8>, width: Width, len: usize) {
    let at = width.after(arena.len(), len);
    arena.reserve_exact(at.end - arena.len());
    arena.resize(at.start, 0);
}

/// Appends `v` at `width` (which holds it) to `arena`.
#[inline]
pub(crate) fn push(arena: &mut Vec<u8>, width: Width, v: u32) {
    debug_assert!(u64::from(v) < 1 << (8 * width.bytes()), "{v} at {width:?}");
    let at = arena.len();
    arena.resize(at + width.bytes(), 0);
    put(arena.get_mut(at..).unwrap_or_default(), width, 0, v);
}

/// Overwrites value `i` of the values at `W` bytes (a [`Width`]'s) that
/// `bytes` holds, in one store; `false` if there is no such value. A
/// builder that writes a section in place names its width once a pass.
#[inline]
pub(crate) fn put_at<const W: usize>(bytes: &mut [u8], i: usize, v: u32) -> bool {
    let to = bytes.get_mut(i * W..i * W + W);
    to.map(|to| to.copy_from_slice(&v.to_le_bytes()[..W]))
        .is_some()
}

/// Value `i` of the values at `W` bytes that `bytes` holds, in one load.
#[inline]
pub(crate) fn load_at<const W: usize>(bytes: &[u8], i: usize) -> Option<u32> {
    let mut value = [0; 4];
    value[..W].copy_from_slice(bytes.get(i * W..i * W + W)?);
    Some(u32::from_le_bytes(value))
}

/// [`put_at`] at `width`.
#[inline]
pub(crate) fn put(bytes: &mut [u8], width: Width, i: usize, v: u32) -> bool {
    match width {
        Width::Zero => put_at::<0>(bytes, i, v),
        Width::One => put_at::<1>(bytes, i, v),
        Width::Two => put_at::<2>(bytes, i, v),
        Width::Four => put_at::<4>(bytes, i, v),
    }
}

#[cfg(test)]
impl<B: AsRef<[u8]>> Section<B> {
    /// Bytes per value.
    pub(crate) fn width(&self) -> Width {
        self.width
    }

    /// The section as a borrow.
    pub(crate) fn view(&self) -> Section<&[u8]> {
        Section {
            bytes: self.bytes.as_ref(),
            len: self.len,
            width: self.width,
        }
    }
}

/// `values` written at the width `bound` gives them.
#[cfg(test)]
pub(crate) fn section_of(values: &[u32], bound: u64) -> Section<Box<[u8]>> {
    let width = Width::below(bound);
    let mut arena = Vec::new();
    reserve(&mut arena, width, values.len());
    values.iter().for_each(|&v| push(&mut arena, width, v));
    Section::owned(arena, values.len() as u32, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_hold_their_bounds_at_the_edges() {
        let edges = [
            (0, Width::Zero),
            (1, Width::Zero),
            (2, Width::One),
            (255, Width::One),
            (256, Width::One),
            (257, Width::Two),
            (65_535, Width::Two),
            (65_536, Width::Two),
            (65_537, Width::Four),
            (1 << 32, Width::Four),
        ];
        for (bound, width) in edges {
            assert_eq!(Width::below(bound), width, "bound {bound}");
            let top = bound.saturating_sub(1) as u32;
            let values = [0, top / 3, top / 2, top];
            let section = section_of(&values, bound);
            assert_eq!(section.view().iter().collect::<Vec<_>>(), values);
            assert_eq!(section.heap_bytes(), 4 * width.bytes());
            assert_eq!(section.get(4), None);
        }
    }

    #[test]
    fn sections_of_one_arena_start_at_a_multiple_of_their_width() {
        let mut arena = Vec::new();
        let parts = [(3usize, Width::One), (2, Width::Four), (3, Width::Two)];
        let mut at = Vec::new();
        for (k, &(len, width)) in parts.iter().enumerate() {
            reserve(&mut arena, width, len);
            at.push(width.after(arena.len(), len));
            (0..len).for_each(|i| push(&mut arena, width, (k * 10 + i) as u32));
        }
        assert_eq!(at, [0..3, 4..12, 12..18]);
        assert_eq!(arena.len(), 18);
        for (k, (&(len, width), at)) in parts.iter().zip(at).enumerate() {
            let section = Section::cut(&arena, at, len as u32, width);
            let want: Vec<u32> = (0..len).map(|i| (k * 10 + i) as u32).collect();
            assert_eq!(section.iter().collect::<Vec<_>>(), want);
            assert_eq!(section.iter().rev().count(), len);
            assert_eq!(section.position(want[1]), Some(1));
            assert!(!section.contains(want[len - 1] + 1));
            let tail = section.slice(1..len);
            assert_eq!(tail.iter().collect::<Vec<_>>(), want[1..]);
            assert!(section.slice(0..len + 1).is_empty(), "past the end");
        }
        let mut bytes = arena.clone();
        assert!(put(&mut bytes[4..12], Width::Four, 1, 70_000));
        assert_eq!(load_at::<4>(&bytes[4..12], 1), Some(70_000));
        assert!(!put(&mut bytes[4..12], Width::Four, 2, 1));
    }
}
