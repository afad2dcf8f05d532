//! Pruned top-k relevance search (Section 4.6, optimization 3).
//!
//! "The related objects to a searched object are a very small percentage of
//! all objects in the target type" — so instead of scoring every target, we
//! walk only the middle objects the source actually reaches and accumulate
//! meeting mass into the targets that share them. Targets never touched are
//! provably zero and are skipped entirely. One walk, [`reach`], serves
//! single-source rows, top-k and the top-k join.

use crate::cache::Halves;
use crate::Ranked;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Left-half nnz below which [`top_k_pairs_parallel`] stays serial. The
/// all-pairs join does a full pruned accumulation per source, so far less
/// total mass is needed before threads pay off.
const PARALLEL_MIN_LEFT_NNZ: usize = 1 << 12;

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal total
/// cost, where `cost(r)` is the per-row work estimate. Ranges are cut as
/// soon as the running cost reaches the per-part budget, so a single hot
/// row never drags its neighbours into the same worker.
fn balanced_ranges(n: usize, parts: usize, cost: impl Fn(usize) -> usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1).min(n.max(1));
    let total: usize = (0..n).map(&cost).sum();
    let per = total / parts + 1;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    for r in 0..n {
        acc += cost(r);
        if acc >= per && r + 1 < n && ranges.len() + 1 < parts {
            ranges.push((start, r + 1));
            start = r + 1;
            acc = 0;
        }
    }
    if start < n || ranges.is_empty() {
        ranges.push((start, n));
    }
    ranges
}

/// A bounded max-score collector: keeps the `k` highest-scoring items seen,
/// breaking score ties by ascending index for deterministic output.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    // Min-heap of the current best k (the root is the weakest kept item).
    heap: BinaryHeap<HeapItem>,
}

#[derive(Debug, PartialEq)]
struct HeapItem {
    score: f64,
    index: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering on score => BinaryHeap becomes a min-heap on
        // score. NaN scores are rejected at insertion.
        other
            .score
            .partial_cmp(&self.score)
            .expect("scores are finite")
            .then_with(|| self.index.cmp(&other.index))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl TopK {
    /// A collector keeping the best `k` items. Nothing is reserved up
    /// front: the heap grows with the items kept, so its size is bounded by
    /// the candidates offered, not by `k`.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// Offers one item; non-finite scores are ignored.
    pub fn push(&mut self, index: u32, score: f64) {
        if self.k == 0 || !score.is_finite() {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapItem { score, index });
            return;
        }
        let weakest = self.heap.peek().expect("non-empty at capacity");
        let better = score > weakest.score || (score == weakest.score && index < weakest.index);
        if better {
            self.heap.pop();
            self.heap.push(HeapItem { score, index });
        }
    }

    /// Extracts the kept items, best first.
    pub fn into_sorted(self) -> Vec<Ranked> {
        let mut items: Vec<HeapItem> = self.heap.into_vec();
        items.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then_with(|| a.index.cmp(&b.index))
        });
        items
            .into_iter()
            .map(|h| Ranked {
                index: h.index,
                score: h.score,
            })
            .collect()
    }
}

/// Adds the meeting mass of `source` into `acc`: for every middle `m` the
/// source reaches, in ascending order, `acc[t] += u[m] * right_t[m][t]`.
/// Returns the targets touched, in first-touch order; a stored zero still
/// touches its targets.
///
/// `acc` has one slot per target and must be zero on entry at every target
/// the walk can touch. Each sum adds its terms in ascending middle order and
/// omits only the terms of middles the source does not reach, which are
/// exact `+0.0`s for the non-negative halves the engine builds, so it is
/// bitwise equal to the dense product `right · u`. Cost is
/// `O(Σ_{m ∈ supp(u)} nnz(right_t[m]))` plus one flag per target.
pub fn reach(h: &Halves, source: u32, acc: &mut [f64]) -> Vec<u32> {
    let s = source as usize;
    let mut seen = vec![false; acc.len()];
    let mut touched = Vec::new();
    for (&m, &w) in h.left.row_indices(s).iter().zip(h.left.row_values(s)) {
        let m = m as usize;
        for (&t, &v) in h.right_t.row_indices(m).iter().zip(h.right_t.row_values(m)) {
            if !seen[t as usize] {
                seen[t as usize] = true;
                touched.push(t);
            }
            acc[t as usize] += w * v;
        }
    }
    touched
}

/// Top-k normalized HeteSim for one source row over materialized halves:
/// [`reach`], then a bounded heap over the touched targets.
///
/// Complexity is `O(Σ_{m ∈ supp(u)} nnz(right_t[m]) + |touched| log k)`
/// plus zeroing one accumulator slot per target. The heap never holds more
/// than the touched targets, whatever `k` is asked for.
pub fn top_k(h: &Halves, source: u32, k: usize) -> Vec<Ranked> {
    if k == 0 {
        return Vec::new();
    }
    let mut acc = vec![0.0; h.right_t.ncols()];
    let touched = reach(h, source, &mut acc);
    let un = h.left_norms[source as usize];
    let mut top = TopK::new(k);
    for t in touched {
        let denom = un * h.right_norms[t as usize];
        if denom > 0.0 {
            top.push(t, acc[t as usize] / denom);
        }
    }
    top.into_sorted()
}

/// One scored source–target pair from an all-pairs search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedPair {
    /// Source object index.
    pub source: u32,
    /// Target object index.
    pub target: u32,
    /// Normalized HeteSim score.
    pub score: f64,
}

/// The `k` highest-scoring `(source, target)` pairs over materialized
/// halves — the path-based analogue of the top-k similarity join the
/// related-work section cites. Pairs with zero meeting probability are
/// never materialized; ties break by `(source, target)` ascending.
pub fn top_k_pairs(h: &Halves, k: usize) -> Vec<RankedPair> {
    best_pairs(h, k, 0..h.left.nrows())
}

/// The `k` best pairs whose source lies in `sources`, with one
/// accumulator reused across the sources.
fn best_pairs(h: &Halves, k: usize, sources: std::ops::Range<usize>) -> Vec<RankedPair> {
    let mut best = Vec::new();
    if k == 0 {
        return best;
    }
    let mut acc = vec![0.0; h.right_t.ncols()];
    for source in sources {
        score_source_pairs(h, source, k, &mut acc, &mut best);
    }
    best
}

/// Inserts `candidate` into the sorted bounded list `best` (descending
/// score, ties ascending `(source, target)`), keeping at most `k` items.
fn insert_pair(best: &mut Vec<RankedPair>, k: usize, candidate: RankedPair) {
    let pos = best.partition_point(|b| {
        b.score > candidate.score
            || (b.score == candidate.score
                && (b.source, b.target) < (candidate.source, candidate.target))
    });
    if pos < k {
        best.insert(pos, candidate);
        best.truncate(k);
    }
}

/// Scores every target one source reaches ([`reach`]) and offers the pairs
/// to `best`. `acc` is the walk's accumulator; it is zero again on return.
fn score_source_pairs(
    h: &Halves,
    source: usize,
    k: usize,
    acc: &mut [f64],
    best: &mut Vec<RankedPair>,
) {
    let un = h.left_norms[source];
    for t in reach(h, source as u32, acc) {
        let dot = std::mem::take(&mut acc[t as usize]);
        let denom = un * h.right_norms[t as usize];
        if denom <= 0.0 {
            continue;
        }
        let score = dot / denom;
        if !score.is_finite() {
            continue;
        }
        insert_pair(
            best,
            k,
            RankedPair {
                source: source as u32,
                target: t,
                score,
            },
        );
    }
}

/// The `k` highest-scoring pairs with sources partitioned across `threads`
/// workers.
///
/// Sources are split into contiguous ranges of near-equal left-half nnz
/// (the per-source pruned-accumulation cost is proportional to the mass of
/// its distribution); each worker keeps its own bounded best-list and the
/// lists are merged with the same ordered insert. Every global top-k pair
/// necessarily survives its worker's local top-k, and the top-k set is
/// unique under the (score desc, pair asc) total order, so the result is
/// identical to [`top_k_pairs`] at every thread count. Falls back to the
/// serial path when `threads <= 1` or the left half is small.
pub fn top_k_pairs_parallel(h: &Halves, k: usize, threads: usize) -> Vec<RankedPair> {
    if threads <= 1 || h.left.nnz() < PARALLEL_MIN_LEFT_NNZ {
        return top_k_pairs(h, k);
    }
    top_k_pairs_parallel_force(h, k, threads)
}

/// The parallel body of [`top_k_pairs_parallel`], with no size gate.
fn top_k_pairs_parallel_force(h: &Halves, k: usize, threads: usize) -> Vec<RankedPair> {
    if k == 0 {
        return Vec::new();
    }
    let _span = hetesim_obs::span!(
        "core.topk.pairs_parallel",
        sources = h.left.nrows(),
        threads = threads,
    );
    let ranges = balanced_ranges(h.left.nrows(), threads, |s| h.left.row_nnz(s));
    let lists: Vec<Vec<RankedPair>> = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| s.spawn(move || best_pairs(h, k, lo..hi)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("top-k worker panicked"))
            .collect()
    });
    let mut best = Vec::new();
    for list in lists {
        for candidate in list {
            insert_pair(&mut best, k, candidate);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k_sorted() {
        let mut t = TopK::new(3);
        for (i, s) in [(0u32, 0.1), (1, 0.9), (2, 0.5), (3, 0.7), (4, 0.2)] {
            t.push(i, s);
        }
        let out = t.into_sorted();
        let idx: Vec<u32> = out.iter().map(|r| r.index).collect();
        assert_eq!(idx, vec![1, 3, 2]);
        assert!(out[0].score >= out[1].score && out[1].score >= out[2].score);
    }

    #[test]
    fn ties_break_by_index() {
        let mut t = TopK::new(2);
        t.push(5, 0.5);
        t.push(1, 0.5);
        t.push(3, 0.5);
        let idx: Vec<u32> = t.into_sorted().iter().map(|r| r.index).collect();
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn zero_k_collects_nothing() {
        let mut t = TopK::new(0);
        t.push(0, 1.0);
        assert!(t.into_sorted().is_empty());
    }

    #[test]
    fn nan_scores_are_ignored() {
        let mut t = TopK::new(2);
        t.push(0, f64::NAN);
        t.push(1, 0.5);
        let out = t.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, 1);
    }

    #[test]
    fn fewer_items_than_k() {
        let mut t = TopK::new(10);
        t.push(0, 0.3);
        t.push(1, 0.6);
        let out = t.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].index, 1);
    }

    #[test]
    fn huge_k_reserves_nothing_up_front() {
        let mut t = TopK::new(1 << 40);
        t.push(0, 0.3);
        assert_eq!(t.into_sorted().len(), 1);
    }

    use hetesim_sparse::{CooMatrix, CsrMatrix};

    fn halves_from(left: CsrMatrix, right: CsrMatrix) -> Halves {
        Halves::new(left, Some(right.transpose())).unwrap()
    }

    /// A skewed fixture: source 0 reaches most middles (hot row), several
    /// sources reach nothing (empty rows), targets have varied support.
    fn skewed_halves() -> Halves {
        let (sources, middles, targets) = (37usize, 23usize, 41usize);
        let mut left = CooMatrix::new(sources, middles);
        for m in 0..middles {
            left.push(0, m, 1.0 + (m % 5) as f64 * 0.25);
        }
        let mut x = 7usize;
        for s in 1..sources {
            if s % 4 == 0 {
                continue; // empty source rows
            }
            for _ in 0..2 {
                x = (x * 1103515245 + 12345) % 2147483648;
                left.push(s, x % middles, ((x % 9) + 1) as f64 * 0.5);
            }
        }
        let mut right = CooMatrix::new(targets, middles);
        for m in 0..middles {
            right.push(3, m, 0.75); // hot target
        }
        for t in 0..targets {
            if t % 5 == 1 {
                continue; // unreachable targets
            }
            for _ in 0..3 {
                x = (x * 1103515245 + 12345) % 2147483648;
                right.push(t, x % middles, ((x % 7) + 1) as f64 * 0.3);
            }
        }
        halves_from(left.to_csr(), right.to_csr())
    }

    #[test]
    fn parallel_pairs_match_serial_bitwise() {
        let h = skewed_halves();
        for k in [1usize, 4, 17, 10_000] {
            let serial = top_k_pairs(&h, k);
            for threads in [2usize, 4, 7, 64] {
                let par = top_k_pairs_parallel_force(&h, k, threads);
                assert_eq!(par, serial, "k={k} threads={threads}");
            }
        }
        assert!(top_k_pairs_parallel_force(&h, 0, 4).is_empty());
    }

    #[test]
    fn balanced_ranges_cover_and_isolate_hot_rows() {
        // One hot row (cost 100) among unit-cost rows: the hot row should
        // not share a range with the entire tail.
        let cost = |r: usize| if r == 2 { 100 } else { 1 };
        let ranges = balanced_ranges(10, 4, cost);
        assert!(ranges.len() <= 4);
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 10);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // The range containing row 2 ends right after it.
        let hot = ranges.iter().find(|&&(lo, hi)| lo <= 2 && 2 < hi).unwrap();
        assert_eq!(hot.1, 3);
        // Degenerate inputs.
        assert_eq!(balanced_ranges(0, 4, |_| 1), vec![(0, 0)]);
        assert_eq!(balanced_ranges(5, 1, |_| 1), vec![(0, 5)]);
        assert_eq!(balanced_ranges(3, 64, |_| 0).last().unwrap().1, 3);
    }
}
