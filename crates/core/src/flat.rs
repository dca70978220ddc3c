//! Collections of `u32` lists in one flat array.
//!
//! Every list collection the build handles — a supernode's intranode
//! adjacency, one superedge's target lists, the complement a negative graph
//! stores, the distinct lists of a dictionary, the bit vectors k-means
//! clusters — is the same shape: many short ascending lists, built once,
//! read many times. [`ListBuf`] holds such a collection as two arrays,
//! every list's entries one after the other and the offset each list ends
//! at, so that nothing is allocated per list; [`FlatLists`] is the
//! borrowed, `Copy` view the encoders read, which can also be cut out of
//! arrays that hold several collections (the builder lays all superedges
//! of a supernode out in one).

/// A borrowed collection of lists: list `i` is `values[ends[i - 1]..ends[i]]`
/// (from 0 for the first), so `ends` is ascending and its last entry is
/// `values.len()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatLists<'a> {
    values: &'a [u32],
    ends: &'a [u32],
}

impl<'a> FlatLists<'a> {
    /// The collection whose list `i` ends at `ends[i]` in `values`.
    ///
    /// # Panics
    /// Panics if the last end is not `values.len()`.
    pub fn new(values: &'a [u32], ends: &'a [u32]) -> Self {
        assert_eq!(ends.last().map_or(0, |&e| e as usize), values.len());
        debug_assert!(ends.windows(2).all(|w| w[0] <= w[1]));
        Self { values, ends }
    }

    /// Number of lists.
    #[inline]
    pub fn len(self) -> usize {
        self.ends.len()
    }

    /// Whether there is no list.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.ends.is_empty()
    }

    /// Entries over all lists.
    #[inline]
    pub fn total(self) -> usize {
        self.values.len()
    }

    /// List `i`.
    #[inline]
    pub fn get(self, i: usize) -> &'a [u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.values[start as usize..self.ends[i] as usize]
    }

    /// Every list, in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a [u32]> {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// An owned collection of lists, appended to one list at a time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ListBuf {
    values: Vec<u32>,
    ends: Vec<u32>,
}

impl ListBuf {
    /// The lists pushed so far.
    #[inline]
    pub fn view(&self) -> FlatLists<'_> {
        FlatLists {
            values: &self.values,
            ends: &self.ends,
        }
    }

    /// Appends `list` as given.
    pub fn push(&mut self, list: impl IntoIterator<Item = u32>) {
        self.values.extend(list);
        self.seal();
    }

    /// Appends the list of the distinct `entries`, ascending, which may be
    /// given in any order and with repeats.
    pub fn push_set(&mut self, entries: impl IntoIterator<Item = u32>) {
        let start = self.ends.last().map_or(0, |&e| e as usize);
        self.values.extend(entries);
        self.values[start..].sort_unstable();
        let mut kept = start;
        for at in start..self.values.len() {
            if kept == start || self.values[at] != self.values[kept - 1] {
                self.values[kept] = self.values[at];
                kept += 1;
            }
        }
        self.values.truncate(kept);
        self.seal();
    }

    /// Ends the list under construction where the entries end.
    fn seal(&mut self) {
        let end = self.values.len();
        assert!(
            end <= u32::MAX as usize,
            "a list collection holds < 2^32 entries"
        );
        self.ends.push(end as u32);
    }

    /// One flat copy of `lists`: what the `&[Vec<u32>]` entry points of
    /// the encoders hand to the flat ones.
    pub fn from_nested(lists: &[Vec<u32>]) -> Self {
        let mut flat = Self::default();
        flat.values
            .reserve_exact(lists.iter().map(Vec::len).sum::<usize>());
        flat.ends.reserve_exact(lists.len());
        for list in lists {
            flat.push(list.iter().copied());
        }
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_come_back_as_pushed() {
        assert!(ListBuf::default().view().is_empty());
        let mut buf = ListBuf::default();
        buf.push_set([5, 1, 3, 1]);
        buf.push([]);
        buf.push([2, 2]);
        buf.push([9, 8]);
        let lists = buf.view();
        assert_eq!(lists.len(), 4);
        assert_eq!(lists.total(), 7);
        assert_eq!(lists.get(0), [1, 3, 5]);
        assert!(lists.get(1).is_empty());
        assert_eq!(lists.get(2), [2, 2]);
        assert_eq!(lists.get(3), [9, 8]);
        let nested: Vec<Vec<u32>> = lists.iter().map(<[u32]>::to_vec).collect();
        assert_eq!(ListBuf::from_nested(&nested), buf);
        // A view cut out of shared arrays reads the same.
        let cut = FlatLists::new(&[7, 7, 4], &[2, 2, 3]);
        assert_eq!(cut.iter().collect::<Vec<_>>(), [&[7, 7][..], &[], &[4]]);
    }
}
