//! Flat storage the four ensemble members share: compressed rows (the
//! term-major `(class, value)` tables, k-NN's postings and forward index),
//! the bounded top-k pass, and the per-thread prediction scratch.

use rulekit_data::TypeId;
use rulekit_text::WeightedQuery;
use std::cell::RefCell;

/// Compressed rows: row `r` of a table is one slice of a flat buffer.
#[derive(Debug)]
pub(crate) struct Csr<T> {
    /// Row `r` is `entries[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<u32>,
    entries: Vec<T>,
}

/// A sparse table, one row per term id. A row lists `(column, value)` pairs;
/// the column is a dense class index (Naive Bayes, perceptron, centroid).
pub(crate) type TermRows = Csr<(u32, f64)>;

impl<T: Copy> Csr<T> {
    /// An empty table with room for `rows` rows.
    pub(crate) fn with_capacity(rows: usize) -> Csr<T> {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr { offsets, entries: Vec::new() }
    }

    /// Appends `row` as the next row.
    pub(crate) fn push_row(&mut self, row: &[T]) {
        self.entries.extend_from_slice(row);
        self.offsets.push(u32::try_from(self.entries.len()).expect("table fits u32 offsets"));
    }

    /// Flattens per-term rows, keeping the order within each row.
    pub(crate) fn from_rows(rows: Vec<Vec<T>>) -> Csr<T> {
        let mut table = Csr::with_capacity(rows.len());
        table.entries.reserve_exact(rows.iter().map(Vec::len).sum());
        for row in &rows {
            table.push_row(row);
        }
        table
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `at`, which must be below [`Csr::len`].
    pub(crate) fn row(&self, at: u32) -> &[T] {
        self.rows(at, at + 1)
    }

    /// The same rows with every entry passed through `f`.
    pub(crate) fn map<U>(&self, f: impl Fn(T) -> U) -> Csr<U> {
        Csr { offsets: self.offsets.clone(), entries: self.entries.iter().map(|&e| f(e)).collect() }
    }

    /// Rows `from..to` end to end; `to` must not exceed [`Csr::len`].
    pub(crate) fn rows(&self, from: u32, to: u32) -> &[T] {
        &self.entries[self.offsets[from as usize] as usize..self.offsets[to as usize] as usize]
    }
}

impl Csr<u32> {
    /// The table turned round: row `c` of the result lists, ascending, the
    /// rows of `self` that hold `c`. Every entry must be below `cols`.
    pub(crate) fn transposed(&self, cols: usize) -> Csr<u32> {
        let mut offsets = vec![0u32; cols + 1];
        for &c in &self.entries {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..cols {
            offsets[c + 1] += offsets[c];
        }
        let mut next = offsets.clone();
        let mut entries = vec![0u32; self.entries.len()];
        for r in 0..self.len() as u32 {
            for &c in self.row(r) {
                entries[next[c as usize] as usize] = r;
                next[c as usize] += 1;
            }
        }
        Csr { offsets, entries }
    }
}

/// The cell of `col` in a row under construction, added as `T::default()`
/// when absent. Rows hold at most one cell per class, so a scan is enough.
pub(crate) fn slot<T: Default>(row: &mut Vec<(u32, T)>, col: u32) -> &mut T {
    let at = row.iter().position(|cell| cell.0 == col).unwrap_or_else(|| {
        row.push((col, T::default()));
        row.len() - 1
    });
    &mut row[at].1
}

/// The `k` best `(key, score)` pairs offered so far, ordered by (score
/// descending, key ascending) — what sorting everything and truncating
/// gives — kept in one bounded pass. Scores must not be NaN. `k` sizes the
/// buffer up front, so pass no more than can be offered.
pub(crate) struct TopK<K> {
    best: Vec<(K, f64)>,
    k: usize,
}

impl<K> Default for TopK<K> {
    fn default() -> Self {
        TopK { best: Vec::new(), k: 0 }
    }
}

impl<K: Ord + Copy> TopK<K> {
    pub(crate) fn new(k: usize) -> Self {
        TopK { best: Vec::with_capacity(k), k }
    }

    /// Forgets every offer and holds the `k` best from here on, keeping the
    /// buffer.
    pub(crate) fn reset(&mut self, k: usize) {
        self.best.clear();
        self.best.reserve(k);
        self.k = k;
    }

    /// The score an offer must reach to enter: the `k`-th best once `k` are
    /// held, nothing before.
    pub(crate) fn floor(&self) -> f64 {
        if self.best.len() == self.k {
            self.best.last().map_or(f64::INFINITY, |last| last.1)
        } else {
            f64::NEG_INFINITY
        }
    }

    pub(crate) fn offer(&mut self, key: K, score: f64) {
        let before = |other: &(K, f64)| score > other.1 || (score == other.1 && key < other.0);
        if self.best.len() == self.k {
            match self.best.last() {
                Some(last) if before(last) => self.best.pop(),
                _ => return,
            };
        }
        let at = self.best.iter().position(before).unwrap_or(self.best.len());
        self.best.insert(at, (key, score));
    }

    pub(crate) fn into_vec(self) -> Vec<(K, f64)> {
        self.best
    }
}

/// The `k` best of `items` (or all of them, if fewer), in [`TopK`] order.
pub(crate) fn top_k<K: Ord + Copy>(
    items: impl Iterator<Item = (K, f64)>,
    k: usize,
) -> Vec<(K, f64)> {
    let mut best = TopK::new(k.min(items.size_hint().1.unwrap_or(k)));
    for (key, score) in items {
        best.offer(key, score);
    }
    best.into_vec()
}

/// Position of `label` in `classes`, the sorted labels of the training set
/// `label` came from.
pub(crate) fn class_index(classes: &[TypeId], label: TypeId) -> u32 {
    classes.binary_search(&label).expect("label is in its own training set") as u32
}

/// Per-thread buffers a prediction borrows, so that a warm `predict`
/// allocates only the `Prediction` it returns. Sized on demand: a retrain
/// (or a second model on the same thread) that needs more grows them once.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The weighed query of the TF/IDF members.
    pub(crate) query: WeightedQuery,
    /// One accumulator per class.
    pub(crate) classes: Vec<f64>,
    /// Naive Bayes: one term's log-likelihood per class, defaults filled in.
    pub(crate) term_row: Vec<f64>,
    /// k-NN: one dot product per training document.
    pub(crate) dots: DocSums,
    /// k-NN: the query's `(term, weight)` entries, heaviest first.
    pub(crate) heaviest: Vec<(u32, f64)>,
    /// k-NN: the `k` best partial cosines of a pruning check.
    pub(crate) partial_best: TopK<u32>,
}

/// `buf` as `n` zeros.
pub(crate) fn zeroed(buf: &mut Vec<f64>, n: usize) -> &mut [f64] {
    buf.clear();
    buf.resize(n, 0.0);
    buf
}

/// Epoch-stamped sums per document (the `core::engine::Scratch` idiom): a
/// cell holds this query's sum only when its stamp equals the current
/// epoch, so starting a query is a counter increment, not `O(docs)` zeroing.
#[derive(Default)]
pub(crate) struct DocSums {
    epoch: u32,
    stamps: Vec<u32>,
    sums: Vec<f64>,
    /// The first `count` cells list the documents touched; one spare cell
    /// takes the write of a repeat touch.
    touched: Vec<u32>,
    count: usize,
}

impl DocSums {
    /// Starts a query over a model of `docs` training documents.
    pub(crate) fn begin(&mut self, docs: usize) {
        if self.epoch == u32::MAX {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.stamps.len() < docs {
            self.stamps.resize(docs, 0);
            self.sums.resize(docs, 0.0);
            self.touched.resize(docs + 1, 0);
        }
        self.count = 0;
    }

    /// Adds `weight` to the sum of every document in `docs`; a sum starts
    /// from zero. Written without a branch on first touch: whether a
    /// posting's document was already touched is a coin flip inside the long
    /// attribute lists.
    pub(crate) fn add_docs(&mut self, docs: &[u32], weight: f64) {
        let (stamps, sums, touched) =
            (&mut self.stamps[..], &mut self.sums[..], &mut self.touched[..]);
        let (epoch, mut count) = (self.epoch, self.count);
        for &doc in docs {
            let i = doc as usize;
            let fresh = stamps[i] != epoch;
            stamps[i] = epoch;
            sums[i] = if fresh { 0.0 } else { sums[i] } + weight;
            touched[count] = doc;
            count += fresh as usize;
        }
        self.count = count;
    }

    /// Number of documents touched since `begin`.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// `(doc, sum)` of every document touched since `begin`, in first-touch
    /// order.
    pub(crate) fn touched(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.touched[..self.count].iter().map(|&doc| (doc, self.sums[doc as usize]))
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with this thread's scratch. Members never call each other, so
/// the borrow is never nested.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip() {
        let rows = TermRows::from_rows(vec![vec![(3, 1.0), (1, 2.0)], vec![], vec![(0, 0.5)]]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.row(0), &[(3, 1.0), (1, 2.0)]);
        assert!(rows.row(1).is_empty());
        assert_eq!(rows.row(2), &[(0, 0.5)]);
        assert_eq!(rows.rows(0, 3), &[(3, 1.0), (1, 2.0), (0, 0.5)]);
    }

    #[test]
    fn transposed_lists_rows_by_column() {
        let by_row = Csr::from_rows(vec![vec![0, 2], vec![], vec![2, 3], vec![0]]);
        let by_col = by_row.transposed(5);
        assert_eq!(by_col.len(), 5);
        assert_eq!(by_col.row(0), &[0, 3]);
        assert!(by_col.row(1).is_empty());
        assert_eq!(by_col.row(2), &[0, 2]);
        assert_eq!(by_col.row(3), &[2]);
        assert!(by_col.row(4).is_empty());
    }

    #[test]
    fn top_k_equals_sort_then_truncate() {
        let items = [(4u32, 0.5), (1, 0.9), (7, 0.5), (2, 0.5), (9, 0.1), (0, 0.9)];
        for k in 0..8 {
            let mut sorted = items.to_vec();
            sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            sorted.truncate(k);
            assert_eq!(top_k(items.iter().copied(), k), sorted, "k = {k}");
        }
    }

    #[test]
    fn doc_sums_forget_the_previous_query() {
        let mut sums = DocSums::default();
        sums.begin(3);
        sums.add_docs(&[2, 0], 1.0);
        sums.add_docs(&[2], 0.25);
        assert_eq!(sums.touched().collect::<Vec<_>>(), vec![(2, 1.25), (0, 1.0)]);
        assert_eq!(sums.len(), 2);
        sums.begin(5);
        sums.add_docs(&[4, 2], 2.0);
        assert_eq!(sums.touched().collect::<Vec<_>>(), vec![(4, 2.0), (2, 2.0)]);
        sums.epoch = u32::MAX;
        sums.begin(5);
        assert_eq!(sums.touched().count(), 0);
        sums.add_docs(&[2], 7.0);
        assert_eq!(sums.touched().collect::<Vec<_>>(), vec![(2, 7.0)]);
    }
}
