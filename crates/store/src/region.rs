//! Shared immutable byte regions — the safe stand-in for `mmap`.
//!
//! The workspace forbids `unsafe`, so true memory mapping is off the
//! table; what the zero-copy read path actually needs from `mmap` is
//! narrower: **one resident copy of a file that many readers can borrow
//! slices of without per-read allocation or copying**. A [`Region`] is
//! exactly that — a reference-counted immutable buffer — and a
//! [`RegionSlice`] is a cheap handle to a sub-range that derefs to
//! `[u8]` and keeps the buffer alive for as long as the slice is held.
//!
//! Lifetime/safety argument (DESIGN.md §5i): the buffer behind a
//! `Region` is written once at construction and never mutated or
//! reallocated afterwards (the `Arc<Vec<u8>>` owns it and nothing exposes
//! `&mut`), so a `RegionSlice`'s bytes are stable for its whole life;
//! the `Arc` guarantees the backing allocation outlives every
//! outstanding slice, which is the property an OS `mmap` would provide
//! via the page cache — minus the possibility of the file changing
//! underneath, which the checksum layer would catch with `mmap` and
//! cannot occur at all here.

use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// A reference-counted immutable byte buffer, shared by any number of
/// [`RegionSlice`] handles.
#[derive(Debug, Clone)]
pub struct Region {
    bytes: Arc<Vec<u8>>,
}

impl Region {
    /// Takes `bytes` as a shared immutable region: the buffer itself, with
    /// no copy.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Self {
            bytes: Arc::new(bytes),
        }
    }

    /// Reads the file at `path` whole, through the retrying shim, into the
    /// buffer the region keeps: the file's one resident copy.
    pub fn read(path: &Path) -> std::io::Result<Self> {
        Ok(Self::from_vec(wg_fault::read_file(path)?))
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the region holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The whole region as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// A borrowing handle to `offset .. offset + len`, or `None` when the
    /// range falls outside the region. The handle is allocation-free:
    /// it clones the `Arc` and remembers the range.
    pub fn slice(&self, offset: usize, len: usize) -> Option<RegionSlice> {
        let end = offset.checked_add(len)?;
        if end > self.bytes.len() {
            return None;
        }
        Some(RegionSlice {
            bytes: Some(Arc::clone(&self.bytes)),
            offset,
            len,
        })
    }
}

/// A sub-range of a [`Region`] that keeps the backing buffer alive.
/// Derefs to `[u8]`, so it drops into any API that borrows bytes. The
/// default is empty and allocates nothing (it holds no buffer).
#[derive(Debug, Clone, Default)]
pub struct RegionSlice {
    bytes: Option<Arc<Vec<u8>>>,
    offset: usize,
    len: usize,
}

impl RegionSlice {
    /// Slice length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Deref for RegionSlice {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.bytes {
            Some(bytes) => &bytes[self.offset..self.offset + self.len],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for RegionSlice {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_borrow_without_copying() {
        let r = Region::from_vec((0u8..100).collect());
        let a = r.slice(10, 5).unwrap();
        let b = r.slice(10, 5).unwrap();
        assert_eq!(&*a, &[10, 11, 12, 13, 14]);
        assert_eq!(&*a, &*b);
        // Same backing allocation: the slices point into the region.
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()));
        assert!(std::ptr::eq(a.as_ptr(), r.as_slice()[10..].as_ptr()));
    }

    #[test]
    fn slice_outlives_region_handle() {
        let s = {
            let r = Region::from_vec(vec![7u8; 32]);
            r.slice(8, 8).unwrap()
        };
        assert_eq!(&*s, &[7u8; 8]);
    }

    #[test]
    fn out_of_range_slices_are_none() {
        let r = Region::from_vec(vec![0u8; 16]);
        assert!(r.slice(0, 16).is_some());
        assert!(r.slice(0, 17).is_none());
        assert!(r.slice(16, 1).is_none());
        assert!(r.slice(usize::MAX, 2).is_none(), "overflow guarded");
        assert!(r.slice(16, 0).is_some(), "empty tail slice is fine");
    }

    #[test]
    fn empty_region() {
        let r = Region::from_vec(Vec::new());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.slice(0, 0).unwrap().is_empty());
        assert!(RegionSlice::default().is_empty());
    }
}
