/// A set of column ids in `0..n` that hands its members back in ascending
/// order — the one way the sparse products in this workspace emit a row.
///
/// A row's columns are inserted in whatever order its accumulation meets
/// them and drained ascending, which replaces sorting the row. The set is
/// two bitmaps: one bit per column, and one bit per 64-column word that is
/// set while that word is non-empty. A drain visits `n / 4096` summary
/// words, then only the non-empty words and the members, so a row costs
/// `O(members + n / 4096)` whatever `n` is.
#[derive(Debug, Clone)]
pub struct ColumnBitmap {
    /// Bit `j % 64` of `words[j / 64]` is set while `j` is a member.
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set while `words[w]` is
    /// non-zero.
    summary: Vec<u64>,
}

impl ColumnBitmap {
    /// An empty set over the columns `0..n`.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Self {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    /// Adds column `j < n`; a member stays one member.
    #[inline]
    pub fn insert(&mut self, j: u32) {
        let w = j as usize / 64;
        self.words[w] |= 1 << (j % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Calls `f` on every member in ascending order, leaving the set empty.
    pub fn drain(&mut self, mut f: impl FnMut(u32)) {
        for (s, summary) in self.summary.iter_mut().enumerate() {
            while *summary != 0 {
                let w = 64 * s + summary.trailing_zeros() as usize;
                *summary &= *summary - 1;
                let word = &mut self.words[w];
                while *word != 0 {
                    f((64 * w) as u32 + word.trailing_zeros());
                    *word &= *word - 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `bitmap` into a vector.
    fn drained(bitmap: &mut ColumnBitmap) -> Vec<u32> {
        let mut out = Vec::new();
        bitmap.drain(|j| out.push(j));
        out
    }

    #[test]
    fn drains_every_member_ascending_and_leaves_the_set_empty() {
        for n in [0usize, 1, 63, 64, 65, 4095, 4096, 4097, 9000] {
            let mut bitmap = ColumnBitmap::new(n);
            // Every column, inserted high to low and twice over.
            for j in (0..n as u32).rev().chain(0..n as u32) {
                bitmap.insert(j);
            }
            assert_eq!(drained(&mut bitmap), (0..n as u32).collect::<Vec<_>>(), "n = {n}");
            assert!(drained(&mut bitmap).is_empty(), "n = {n}: a drain empties the set");
            // Word and summary edges, in a scrambled order.
            let last = n.saturating_sub(1) as u32;
            let mut edges: Vec<u32> = [0, 63, 64, 127, 4031, 4032, 4095, 4096, last]
                .into_iter()
                .filter(|&j| (j as usize) < n)
                .collect();
            for &j in edges.iter().rev() {
                bitmap.insert(j);
            }
            edges.sort_unstable();
            edges.dedup();
            assert_eq!(drained(&mut bitmap), edges, "n = {n}");
        }
    }
}
