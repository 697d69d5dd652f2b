//! [`RowSet`]: the row ids of one reply, kept as the bitmap they came
//! from.
//!
//! A selection query's answer is a bitmap. A shard builds its reply
//! straight from the result bitmap's words, the wire carries those words
//! (or a short list when that is smaller), the router merges shard
//! replies by shifting each shard's words to its row base, and the
//! client keeps the words it decoded. Row ids are expanded into a
//! `Vec<u64>` only when a caller reads them as a slice, and then once.
//! [`RowSet::len`], equality and [`RowSet::ids`] never expand.

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

/// A dense bitmap window: bit `i` of `words` (bit `i % 64` of word
/// `i / 64`) set means row `first + i`.
///
/// Always normalised: bit 0 of the first word is set, the last word is
/// non-zero and `count` is the popcount. So `first` is the smallest row,
/// the window ends at the word holding the largest one, and two windows
/// hold the same rows exactly when they are equal field by field.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Window {
    pub(crate) first: u64,
    pub(crate) words: Vec<u64>,
    count: u64,
}

impl Window {
    /// The normalised window over the rows of `words`, whose bit `i`
    /// means row `first + i`; `None` when no bit is set. Words already
    /// in normal form are kept as they are. The caller guarantees
    /// `first + 64 · words.len()` fits a `u64`.
    fn new(first: u64, mut words: Vec<u64>) -> Option<Window> {
        let lo = words.iter().position(|&w| w != 0)?;
        let shift = words[lo].trailing_zeros();
        if shift == 0 {
            words.drain(..lo);
        } else {
            // Shift the first set bit down to bit 0 in place: word `j`
            // reads words `j + lo` and `j + lo + 1`, never one already
            // rewritten.
            for j in 0..words.len() - lo {
                let carry = words.get(j + lo + 1).map_or(0, |&n| n << (64 - shift));
                words[j] = (words[j + lo] >> shift) | carry;
            }
            words.truncate(words.len() - lo);
        }
        while words.last() == Some(&0) {
            words.pop();
        }
        Some(Window {
            first: first + 64 * lo as u64 + u64::from(shift),
            count: words.iter().map(|w| u64::from(w.count_ones())).sum(),
            words,
        })
    }

    /// The largest row in the window.
    fn last(&self) -> u64 {
        let top = self.words.last().expect("a normalised window has words");
        self.first + 64 * (self.words.len() as u64 - 1) + u64::from(63 - top.leading_zeros())
    }

    fn expand(&self) -> Vec<u64> {
        let mut rows = Vec::with_capacity(self.count as usize);
        rows.extend(Ids::bits(self.first, &self.words));
        rows
    }
}

/// The matching row ids of one reply, ascending as evaluated.
///
/// Backed by a bitmap window when it was built from a bitmap or decoded
/// from a window on the wire, and by a list otherwise. It dereferences to
/// `[u64]`; a window is expanded into that list on the first slice
/// access and the list is kept. [`RowSet::len`], [`RowSet::is_empty`],
/// [`RowSet::ids`] and equality — with another `RowSet` or with a
/// `Vec<u64>` — work on the window without expanding it.
#[derive(Clone, Default)]
pub struct RowSet {
    window: Option<Window>,
    /// The row ids as a list: set on construction for a list-backed
    /// set, filled from the window on first slice access otherwise.
    list: OnceLock<Vec<u64>>,
}

impl RowSet {
    /// An empty row set.
    pub fn new() -> RowSet {
        RowSet::default()
    }

    /// The rows of a bitmap given as its `u64` words: bit `i % 64` of
    /// word `i / 64` set means row `i` matches.
    pub fn from_words(words: &[u64]) -> RowSet {
        RowSet {
            window: Window::new(0, words.to_vec()),
            list: OnceLock::new(),
        }
    }

    /// A row set over a window decoded from the wire: bit `i` of
    /// `words` means row `first + i`, and `first + 64 · words.len()`
    /// fits a `u64`.
    pub(crate) fn from_window(first: u64, words: Vec<u64>) -> RowSet {
        RowSet {
            window: Window::new(first, words),
            list: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match (&self.window, self.list.get()) {
            (Some(w), _) => w.count as usize,
            (None, Some(list)) => list.len(),
            (None, None) => 0,
        }
    }

    /// Whether no row matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row ids in order, read off the window or the list without
    /// expanding the window.
    pub fn ids(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        match &self.window {
            Some(w) => Ids::bits(w.first, &w.words),
            None => Ids::list(self.list.get().map_or(&[], Vec::as_slice)),
        }
    }

    /// Whether the row ids are held as a list: always for a list-backed
    /// set, after the first slice access for a window.
    #[cfg(test)]
    pub(crate) fn is_expanded(&self) -> bool {
        self.list.get().is_some()
    }

    /// The window backing this set, if it has one.
    #[cfg(test)]
    pub(crate) fn window(&self) -> Option<&Window> {
        self.window.as_ref()
    }

    /// The window these rows travel as on the wire, or `None` when they
    /// travel as a list: the rows must be strictly ascending and the
    /// window smaller than the list (see [`window_is_smaller`]). A
    /// window-backed set lends its own window.
    pub(crate) fn wire_window(&self) -> Option<Cow<'_, Window>> {
        match &self.window {
            Some(w) => window_is_smaller(w.first, w.words.len() as u64, w.count)
                .then_some(Cow::Borrowed(w)),
            None => RowSet::concat([(0, self)]).window.map(Cow::Owned),
        }
    }

    /// The offset concatenation of `parts`: each part's row ids plus its
    /// offset, in the order given.
    ///
    /// When every part is ascending and starts past the previous part's
    /// last row, and the result is dense enough that a window is smaller
    /// than a list, each part's words are shifted to their offset and
    /// OR-ed into one window — no row id is expanded. Otherwise the ids
    /// are concatenated into a list, exactly as given.
    pub fn concat<'a>(parts: impl IntoIterator<Item = (u64, &'a RowSet)>) -> RowSet {
        let parts: Vec<(u64, &RowSet)> = parts.into_iter().filter(|(_, r)| !r.is_empty()).collect();
        match Self::concat_span(&parts) {
            Some((first, n_words)) => {
                let mut words = vec![0u64; n_words];
                for &(offset, rows) in &parts {
                    match &rows.window {
                        Some(w) => or_shifted(&mut words, &w.words, offset + w.first - first),
                        None => {
                            for &row in rows.list.get().expect("a list-backed set has its list") {
                                let bit = offset + row - first;
                                words[(bit / 64) as usize] |= 1 << (bit % 64);
                            }
                        }
                    }
                }
                let count = parts.iter().map(|(_, r)| r.len() as u64).sum();
                RowSet {
                    window: Some(Window {
                        first,
                        words,
                        count,
                    }),
                    list: OnceLock::new(),
                }
            }
            None => parts
                .iter()
                .flat_map(|&(offset, rows)| rows.ids().map(move |r| r + offset))
                .collect(),
        }
    }

    /// The window `(first row, words)` the concatenation of the
    /// non-empty `parts` fills, or `None` when the parts are not
    /// disjoint and ascending, a row overflows, or the window would not
    /// be smaller than the list.
    fn concat_span(parts: &[(u64, &RowSet)]) -> Option<(u64, usize)> {
        let mut first = None;
        let mut last: Option<u64> = None;
        let mut count = 0u64;
        for &(offset, rows) in parts {
            let (lo, hi) = match &rows.window {
                Some(w) => (w.first, w.last()),
                None => {
                    let list = rows.list.get()?;
                    if !list.windows(2).all(|p| p[0] < p[1]) {
                        return None;
                    }
                    (*list.first()?, *list.last()?)
                }
            };
            let (lo, hi) = (lo.checked_add(offset)?, hi.checked_add(offset)?);
            if last.is_some_and(|prev| lo <= prev) {
                return None;
            }
            first.get_or_insert(lo);
            last = Some(hi);
            count += rows.len() as u64;
        }
        let (first, last) = (first?, last?);
        let n_words = (last - first) / 64 + 1;
        window_is_smaller(first, n_words, count).then_some((first, n_words as usize))
    }
}

/// Whether a window of `n_words` words from row `first` holding `count`
/// rows is the smaller wire layout: its body (`first`, the word count
/// and the words) is under the list's 8 bytes per row, and its end
/// `first + 64 · n_words` fits a `u64`.
fn window_is_smaller(first: u64, n_words: u64, count: u64) -> bool {
    let end = n_words
        .checked_mul(64)
        .and_then(|bits| first.checked_add(bits));
    n_words + 2 < count && end.is_some()
}

/// ORs `src` into `dst` starting at bit `at` of `dst`. The caller sizes
/// `dst` to hold every set bit of the shifted `src`.
fn or_shifted(dst: &mut [u64], src: &[u64], at: u64) {
    let (skip, shift) = ((at / 64) as usize, at % 64);
    let dst = &mut dst[skip..];
    if shift == 0 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d |= s;
        }
        return;
    }
    for (j, &s) in src.iter().enumerate() {
        dst[j] |= s << shift;
        let spill = s >> (64 - shift);
        if spill != 0 {
            dst[j + 1] |= spill;
        }
    }
}

/// Iterator over a [`RowSet`]'s row ids, from [`RowSet::ids`].
#[derive(Clone)]
struct Ids<'a>(IdsFrom<'a>);

#[derive(Clone)]
enum IdsFrom<'a> {
    List(std::slice::Iter<'a, u64>),
    /// A window's set bits: `word` holds the unread bits of the word
    /// whose bit 0 is row `base`.
    Bits {
        words: std::slice::Iter<'a, u64>,
        base: u64,
        word: u64,
    },
}

impl<'a> Ids<'a> {
    fn list(rows: &'a [u64]) -> Ids<'a> {
        Ids(IdsFrom::List(rows.iter()))
    }

    fn bits(first: u64, words: &'a [u64]) -> Ids<'a> {
        Ids(IdsFrom::Bits {
            words: words.iter(),
            base: first.wrapping_sub(64),
            word: 0,
        })
    }
}

impl Iterator for Ids<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match &mut self.0 {
            IdsFrom::List(it) => it.next().copied(),
            IdsFrom::Bits { words, base, word } => {
                while *word == 0 {
                    *word = *words.next()?;
                    *base = base.wrapping_add(64);
                }
                let row = *base + u64::from(word.trailing_zeros());
                *word &= *word - 1;
                Some(row)
            }
        }
    }
}

impl Deref for RowSet {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.list
            .get_or_init(|| self.window.as_ref().map_or_else(Vec::new, Window::expand))
    }
}

impl<'a> IntoIterator for &'a RowSet {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<u64>> for RowSet {
    fn from(rows: Vec<u64>) -> RowSet {
        RowSet {
            window: None,
            list: OnceLock::from(rows),
        }
    }
}

impl FromIterator<u64> for RowSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> RowSet {
        RowSet::from(iter.into_iter().collect::<Vec<u64>>())
    }
}

impl PartialEq for RowSet {
    fn eq(&self, other: &RowSet) -> bool {
        match (&self.window, &other.window) {
            (Some(a), Some(b)) => a == b,
            _ => self.len() == other.len() && self.ids().eq(other.ids()),
        }
    }
}

impl Eq for RowSet {}

impl PartialEq<[u64]> for RowSet {
    fn eq(&self, other: &[u64]) -> bool {
        self.len() == other.len() && self.ids().eq(other.iter().copied())
    }
}

impl PartialEq<Vec<u64>> for RowSet {
    fn eq(&self, other: &Vec<u64>) -> bool {
        *self == **other
    }
}

impl PartialEq<RowSet> for Vec<u64> {
    fn eq(&self, other: &RowSet) -> bool {
        *other == **self
    }
}

impl fmt::Debug for RowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.ids()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows of `words` by brute force, bit by bit.
    fn brute(words: &[u64]) -> Vec<u64> {
        (0..64 * words.len() as u64)
            .filter(|&i| words[(i / 64) as usize] >> (i % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn windows_are_normalised_to_the_first_and_last_row() {
        for words in [
            vec![],
            vec![0, 0],
            vec![1],
            vec![0, 0b1010_0000, 0, 1 << 63, 0, 0],
            vec![u64::MAX, 0, 7],
            vec![1 << 63, 1],
        ] {
            let rows = RowSet::from_words(&words);
            let want = brute(&words);
            assert_eq!(rows.ids().collect::<Vec<_>>(), want, "{words:?}");
            assert_eq!(rows.len(), want.len());
            if let Some(w) = rows.window() {
                assert_eq!(w.first, want[0]);
                assert_eq!(w.last(), *want.last().unwrap());
                assert_eq!(w.words[0] & 1, 1);
                assert_ne!(*w.words.last().unwrap(), 0);
            } else {
                assert!(want.is_empty());
            }
            assert_eq!(&rows[..], &want[..]);
        }
    }

    #[test]
    fn len_and_equality_leave_a_window_unexpanded() {
        let words: Vec<u64> = (0..40u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let a = RowSet::from_words(&words);
        let b = RowSet::from_window(a.window().unwrap().first, a.window().unwrap().words.clone());
        let want = brute(&words);
        assert_eq!(a.len(), want.len());
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_eq!(a, want);
        assert_eq!(want, a);
        assert_ne!(a, want[1..].to_vec());
        assert_eq!(format!("{a:?}"), format!("{want:?}"));
        assert!(!a.is_expanded() && !b.is_expanded());
        // A slice access expands once and keeps the list.
        assert_eq!(a.iter().count(), want.len());
        assert!(a.is_expanded());
        assert_eq!(a, b);
    }

    #[test]
    fn decoded_windows_off_the_normal_form_are_normalised() {
        // Leading zero word, offset first bit, trailing zero word.
        let odd = RowSet::from_window(100, vec![0, 0b1100, 0]);
        assert_eq!(odd.ids().collect::<Vec<_>>(), vec![166, 167]);
        let w = odd.window().unwrap();
        assert_eq!((w.first, w.words.as_slice()), (166, &[0b11][..]));
        assert_eq!(odd, RowSet::from(vec![166, 167]));
        assert!(RowSet::from_window(5, vec![0, 0]).is_empty());
    }

    #[test]
    fn concat_shifts_windows_and_keeps_lists_exact() {
        let dense = |lo: u64, n: u64| RowSet::from_words(&[((1u64 << n) - 1) << lo]);
        let parts = [
            (0, dense(3, 40)),
            (50, RowSet::new()),
            (50, RowSet::from(vec![0, 2, 4])),
            (117, dense(0, 60)),
        ];
        let got = RowSet::concat(parts.iter().map(|(o, r)| (*o, r)));
        let want: Vec<u64> = parts
            .iter()
            .flat_map(|(o, r)| r.ids().map(move |x| x + o))
            .collect();
        assert!(got.window().is_some(), "dense parts merge as a window");
        assert_eq!(got, want);
        // Parts out of order, or an unsorted list, keep their order.
        let swapped = RowSet::concat([(117, &parts[3].1), (0, &parts[0].1)]);
        assert!(swapped.window().is_none());
        assert_eq!(swapped[0], 117);
        let unsorted = RowSet::from(vec![9, 3]);
        assert_eq!(&RowSet::concat([(10, &unsorted)])[..], &[19, 13]);
        // Sparse parts stay a list: no window wider than the rows.
        let far = RowSet::concat([(0, &dense(0, 3)), (1 << 40, &dense(0, 3))]);
        assert!(far.window().is_none());
        assert_eq!(far.len(), 6);
    }
}
