//! Evaluating a [`CompiledPredicate`] over a record table's columns.
//!
//! A table that stores its records as columns (`failscope::StreamView`)
//! lends them as [`Columns`], and [`CompiledPredicate::select`] answers
//! with the [`RowMask`] of the rows the predicate keeps — the rows whose
//! records [`CompiledPredicate::matches`] accepts. Each leaf is resolved
//! once per table, not once per row, and then read off a column:
//!
//! * `category` is a table over the palette codes;
//! * `node` and `rack` (numeric or `~`) are a table over the nodes of
//!   the spec, so `~` formats one path per node, not one per row;
//! * `ttr`, `time`, `recovery`, `gpus` and `slot` compare the TTR, time
//!   and slot columns row by row;
//! * `month` is the union of the month buckets' row ranges;
//! * `&&`, `||` and `!` combine 64-row words.
//!
//! Every leaf applies the comparison the per-record path applies
//! (`Check::holds`, the category set, the node and rack
//! values and paths), so the two cannot disagree on a leaf's meaning.

use std::ops::Range;

use failtypes::{Category, GpuSlot, ObservationWindow, SystemSpec};

use crate::parser::CmpOp;
use crate::{
    month_value, node_value, num_cmp, slot_value, text_matches, Check, CompiledPredicate, Node,
    NumField,
};

/// The columns of a record table in time order, with the system context
/// a predicate evaluates against. Row `i` is entry `i` of every
/// per-row column.
#[derive(Debug, Clone, Copy)]
pub struct Columns<'a> {
    /// The system the records belong to (its rack topology).
    pub spec: &'a SystemSpec,
    /// The observation window (date bounds and calendar months).
    pub window: ObservationWindow,
    /// Failure times in hours, ascending.
    pub times: &'a [f64],
    /// Repair durations in hours.
    pub ttrs: &'a [f64],
    /// Each row's category, as an index into `palette`.
    pub codes: &'a [u8],
    /// The categories `codes` index.
    pub palette: &'a [Category],
    /// Each row's node id, below `spec.nodes()`.
    pub nodes: &'a [u32],
    /// Each row's end offset into `slots`: row `i`'s GPU slots are
    /// `slots[slot_ends[i - 1]..slot_ends[i]]`.
    pub slot_ends: &'a [u32],
    /// Every row's involved GPU slots, concatenated in row order.
    pub slots: &'a [GpuSlot],
    /// Rows per month of `window.months()`; time order makes the rows
    /// of each month one run that follows the previous month's.
    pub month_counts: &'a [usize],
}

/// Where row `row`'s GPU slots lie in a slot column, given the per-row
/// end offsets `slot_ends` (see [`Columns::slot_ends`]).
pub fn slot_range(slot_ends: &[u32], row: usize) -> Range<usize> {
    let start = row.checked_sub(1).map_or(0, |prev| slot_ends[prev]);
    start as usize..slot_ends[row] as usize
}

impl Columns<'_> {
    /// The GPU slots row `row` involves.
    fn slots_of(&self, row: usize) -> &[GpuSlot] {
        &self.slots[slot_range(self.slot_ends, row)]
    }

    /// The rows `node` keeps.
    fn rows_of(&self, node: &Node) -> RowMask {
        let len = self.times.len();
        let by_node = |table: Vec<bool>| RowMask::from_values(self.nodes, |node| table[node as usize]);
        match node {
            Node::And(a, b) => self.rows_of(a).and(&self.rows_of(b)),
            Node::Or(a, b) => self.rows_of(a).or(&self.rows_of(b)),
            Node::Not(a) => self.rows_of(a).not(),
            Node::Category(matcher) => {
                let table: Vec<bool> = self.palette.iter().map(|&c| matcher.matches(c)).collect();
                RowMask::from_values(self.codes, |code| table[usize::from(code)])
            }
            Node::Text { field, needle } => by_node(
                (0..self.spec.nodes())
                    .map(|node| text_matches(*field, needle, node, self.spec))
                    .collect(),
            ),
            Node::Num { field, test } => {
                let check = test.resolve(self.window);
                match field {
                    NumField::Ttr => checked(self.ttrs, check),
                    NumField::Time => checked(self.times, check),
                    NumField::Recovery => {
                        // The add `FailureRecord::recovery_time` makes.
                        let recoveries: Vec<f64> = (self.times.iter())
                            .zip(self.ttrs)
                            .map(|(time, ttr)| time + ttr)
                            .collect();
                        checked(&recoveries, check)
                    }
                    NumField::Node | NumField::Rack => by_node(
                        (0..self.spec.nodes())
                            .map(|node| check.holds(node_value(*field, node, self.spec)))
                            .collect(),
                    ),
                    NumField::Slot => {
                        let table: Vec<bool> = (0..=u8::MAX)
                            .map(|s| check.holds(slot_value(GpuSlot::new(s))))
                            .collect();
                        RowMask::from_fn(len, |row| {
                            self.slots_of(row)
                                .iter()
                                .any(|s| table[usize::from(s.index())])
                        })
                    }
                    NumField::Gpus => {
                        RowMask::from_fn(len, |row| check.holds(self.slots_of(row).len() as f64))
                    }
                    NumField::Month => {
                        let mut mask = RowMask::from_fn(len, |_| false);
                        let mut first = 0;
                        for (&(_, month), &count) in
                            self.window.months().iter().zip(self.month_counts)
                        {
                            if check.holds(month_value(month)) {
                                mask.insert_rows(first..first + count);
                            }
                            first += count;
                        }
                        mask
                    }
                }
            }
        }
    }
}

/// The rows whose value (row `i`'s is `values[i]`) passes `check`. Each
/// comparison operator gets its own loop with the operator fixed, so
/// [`num_cmp`] folds to one branch-free compare per value.
fn checked(values: &[f64], check: Check<'_>) -> RowMask {
    let Check::Cmp(op, rhs) = check else {
        return RowMask::from_values(values, |v| check.holds(v));
    };
    macro_rules! with_op_fixed {
        ($($op:ident)*) => {
            match op {
                $(CmpOp::$op => RowMask::from_values(values, |v| num_cmp(v, CmpOp::$op, rhs)),)*
                CmpOp::Match => unreachable!("`~` never reaches numeric comparison"),
            }
        };
    }
    with_op_fixed!(Eq Ne Lt Le Gt Ge)
}

impl CompiledPredicate {
    /// The rows of `cols` this predicate keeps: exactly the rows whose
    /// records [`matches`](CompiledPredicate::matches) accepts, found
    /// by evaluating each leaf over whole columns (see [`Columns`]).
    pub fn select(&self, cols: &Columns<'_>) -> RowMask {
        cols.rows_of(&self.root)
    }
}

/// A set of rows `0..len` of a table, as a bitmap of 64 rows to a word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    len: usize,
    words: Vec<u64>,
}

impl RowMask {
    /// The rows of `0..len` for which `keep(row)` holds; `keep` is
    /// called once per row, in ascending order.
    pub fn from_fn(len: usize, mut keep: impl FnMut(usize) -> bool) -> RowMask {
        let words = (0..len)
            .step_by(64)
            .map(|first| {
                (first..len.min(first + 64)).fold(0, |word, row| {
                    word | u64::from(keep(row)) << (row - first)
                })
            })
            .collect();
        RowMask { len, words }
    }

    /// The rows whose value (row `i`'s is `values[i]`) passes `keep`:
    /// one word per 64 values, with no bounds check in the loop.
    fn from_values<T: Copy>(values: &[T], keep: impl Fn(T) -> bool) -> RowMask {
        let words = values
            .chunks(64)
            .map(|chunk| {
                (chunk.iter().enumerate())
                    .fold(0, |word, (bit, &v)| word | u64::from(keep(v)) << bit)
            })
            .collect();
        RowMask {
            len: values.len(),
            words,
        }
    }

    /// Adds the rows `rows`, which lie below the mask's length.
    fn insert_rows(&mut self, rows: Range<usize>) {
        let (mut bit, end) = (rows.start, rows.end);
        while bit < end {
            let (word, shift) = (bit / 64, bit % 64);
            let run = (end - bit).min(64 - shift);
            self.words[word] |= (u64::MAX >> (64 - run)) << shift;
            bit += run;
        }
    }

    /// The rows in both masks (which cover the same rows).
    fn and(mut self, other: &RowMask) -> RowMask {
        self.words
            .iter_mut()
            .zip(&other.words)
            .for_each(|(a, b)| *a &= b);
        self
    }

    /// The rows in either mask (which cover the same rows).
    fn or(mut self, other: &RowMask) -> RowMask {
        self.words
            .iter_mut()
            .zip(&other.words)
            .for_each(|(a, b)| *a |= b);
        self
    }

    /// The rows below the mask's length not in the mask.
    fn not(mut self) -> RowMask {
        self.words.iter_mut().for_each(|w| *w = !*w);
        if let Some(last) = self.words.last_mut() {
            let tail = self.len % 64;
            if tail != 0 {
                *last &= u64::MAX >> (64 - tail);
            }
        }
        self
    }

    /// How many rows the mask holds.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The rows the mask holds, ascending.
    pub fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let first = w * 64;
            std::iter::successors(Some(word), |&bits| Some(bits & bits.wrapping_sub(1)))
                .take_while(|&bits| bits != 0)
                .map(move |bits| first + bits.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_combine_by_word_and_stay_below_their_length() {
        let odd = RowMask::from_fn(133, |row| row % 2 == 1);
        assert_eq!(odd.count(), 66);
        assert!(odd.rows().all(|row| row < 133 && row % 2 == 1));
        let not_odd = odd.clone().not();
        assert_eq!(not_odd.count(), 67);
        assert!(not_odd.rows().all(|row| row < 133 && row % 2 == 0));
        assert_eq!(odd.clone().or(&not_odd).count(), 133);
        assert_eq!(odd.and(&not_odd).count(), 0);
        assert_eq!(RowMask::from_values(&[1, 5, 2, 7], |v| v > 2), {
            RowMask::from_fn(4, |row| row % 2 == 1)
        });

        let mut run = RowMask::from_fn(200, |_| false);
        run.insert_rows(0..2);
        run.insert_rows(60..130);
        run.insert_rows(195..200);
        run.insert_rows(40..40);
        let expected: Vec<usize> = (0..2).chain(60..130).chain(195..200).collect();
        assert_eq!(run.rows().collect::<Vec<_>>(), expected);
        assert_eq!(RowMask::from_fn(0, |_| true).not().count(), 0);
    }
}
