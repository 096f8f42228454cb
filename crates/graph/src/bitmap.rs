/// A dense row of `f32` sums over the columns `0..n`, drained in ascending
/// column order: how the REG build and the partitioner's coarse levels
/// gather a row without sorting it.
///
/// Entries go in by [`Extend`] with no test: a sum rests at `-0.0`, the
/// identity of `f32` addition (`±0.0` included), so a column sums its
/// weights in entry order, as a first touch and then `+=` would. A column
/// is marked by a bit, and its word by a summary bit, so a row drains in
/// `O(members + n / 4096)`.
#[derive(Debug, Clone)]
pub struct RowAccumulator {
    sums: Vec<f32>,
    /// Bit `j % 64` of `words[j / 64]` is set while column `j` is marked.
    words: Vec<u64>,
    /// A bit per non-zero word, in [`LANES`] copies laid end to end.
    summary: Vec<u64>,
    /// A drain's scratch: the marked columns, then the row over them.
    row: Vec<(u32, f32)>,
}

/// Summary copies that marks take turns over: with one, each mark into a
/// small row's one summary word would wait on the store of the last.
const LANES: usize = 4;
/// Columns a drain takes out of a word at once, whether it holds that many
/// or not, so the loop over a word runs once unless it holds more.
const OVERRUN: usize = 4;

impl RowAccumulator {
    /// An empty row over the columns `0..n`.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Self {
            sums: vec![-0.0; n],
            words: vec![0; words],
            summary: vec![0; LANES * words.div_ceil(64)],
            row: vec![(0, 0.0); n + OVERRUN],
        }
    }

    /// `(j, sum)` of every marked column but `skip` (the diagonal, say),
    /// ascending, leaving the row empty; `skip` is dropped by no branch.
    pub fn drain(&mut self, skip: u32) -> &[(u32, f32)] {
        let (lane, mut members) = (self.summary.len() / LANES, 0);
        for s in 0..lane {
            let copies = self.summary[s..].iter_mut().step_by(lane);
            let mut words = copies.fold(0, |all, copy| all | std::mem::take(copy));
            while words != 0 {
                let w = 64 * s + words.trailing_zeros() as usize;
                words &= words - 1;
                let mut word = std::mem::take(&mut self.words[w]);
                let end = members + word.count_ones() as usize;
                while members < end {
                    for slot in &mut self.row[members..members + OVERRUN] {
                        slot.0 = (64 * w) as u32 + word.trailing_zeros();
                        word &= word.wrapping_sub(1);
                    }
                    members += OVERRUN;
                }
                members = end;
            }
        }
        let mut len = 0;
        for i in 0..members {
            let j = self.row[i].0;
            self.row[len] = (j, std::mem::replace(&mut self.sums[j as usize], -0.0));
            len += usize::from(j != skip);
        }
        &self.row[..len]
    }
}

impl Extend<(u32, f32)> for RowAccumulator {
    /// Adds each `(j, w)` to the row: `w` to column `j < n`.
    fn extend<I: IntoIterator<Item = (u32, f32)>>(&mut self, entries: I) {
        let lane = self.summary.len() / LANES;
        let (sums, words, summary) = (&mut self.sums, &mut self.words, &mut self.summary);
        for (at, (j, w)) in entries.into_iter().enumerate() {
            sums[j as usize] += w;
            words[j as usize / 64] |= 1 << (j % 64);
            summary[at % LANES * lane + j as usize / 4096] |= 1 << (j / 64 % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adds every column of `columns` with weight 1 to `row`.
    fn mark(row: &mut RowAccumulator, columns: impl Iterator<Item = u32>) {
        row.extend(columns.map(|j| (j, 1.0)));
    }

    /// Drains `row` into its columns.
    fn drained(row: &mut RowAccumulator) -> Vec<u32> {
        row.drain(u32::MAX).iter().map(|&(j, _)| j).collect()
    }

    #[test]
    fn drains_every_member_ascending_and_leaves_the_set_empty() {
        for n in [0usize, 1, 63, 64, 65, 4095, 4096, 4097, 9000] {
            let mut row = RowAccumulator::new(n);
            // Every column, inserted high to low and twice over.
            mark(&mut row, (0..n as u32).rev().chain(0..n as u32));
            assert_eq!(drained(&mut row), (0..n as u32).collect::<Vec<_>>(), "n = {n}");
            assert!(drained(&mut row).is_empty(), "n = {n}: a drain empties the set");
            // Word and summary edges, in a scrambled order.
            let last = n.saturating_sub(1) as u32;
            let mut edges: Vec<u32> = [0, 63, 64, 127, 4031, 4032, 4095, 4096, last]
                .into_iter()
                .filter(|&j| (j as usize) < n)
                .collect();
            mark(&mut row, edges.iter().rev().copied());
            edges.sort_unstable();
            edges.dedup();
            assert_eq!(drained(&mut row), edges, "n = {n}");
            // The skipped column is dropped, every other one kept.
            mark(&mut row, edges.iter().copied());
            let kept: Vec<u32> = row.drain(last).iter().map(|&(j, _)| j).collect();
            assert_eq!(kept, edges[..edges.len().saturating_sub(1)], "n = {n}");
        }
    }

    #[test]
    fn a_column_sums_in_entry_order_from_negative_zero() {
        let big = 16_777_216.0f32;
        let mut row = RowAccumulator::new(5);
        row.extend([(3, big), (0, -0.0), (3, 1.0), (1, 0.0), (3, 1.0), (4, 1.0), (4, big)]);
        let bits = |row: &[(u32, f32)]| -> Vec<(u32, u32)> {
            row.iter().map(|&(j, w)| (j, w.to_bits())).collect()
        };
        // A `-0.0` entry stays `-0.0`, a `+0.0` one `+0.0`; (2²⁴ + 1) + 1
        // is 2²⁴ in `f32`, 1 + 2²⁴ too.
        let expected = [(0, -0.0f32), (1, 0.0), (3, big), (4, big)];
        assert_eq!(bits(row.drain(u32::MAX)), bits(&expected));
        // Every slot is back at rest.
        row.extend([(0, 0.0), (3, 2.0)]);
        assert_eq!(bits(row.drain(u32::MAX)), bits(&[(0, 0.0), (3, 2.0)]));
    }
}
