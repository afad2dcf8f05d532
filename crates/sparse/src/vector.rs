/// A sparse vector with sorted indices.
///
/// Rows of reachable-probability matrices are sparse vectors; the HeteSim
/// score of an object pair is the cosine of two of them (Definition 10), so
/// the merge-style dot product here is the innermost kernel of single-pair
/// queries.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// An all-zero vector of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        SparseVec {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from parallel index/value arrays.
    ///
    /// # Panics
    /// Panics if lengths differ, indices are unsorted/duplicated, or any
    /// index is out of bounds.
    pub fn from_parts(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        if let Some(&last) = indices.last() {
            assert!((last as usize) < dim, "index out of bounds");
        }
        SparseVec {
            dim,
            indices,
            values,
        }
    }

    /// Builds from a dense slice, keeping non-zero entries.
    pub fn from_dense(x: &[f64]) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in x.iter().enumerate() {
            if v != 0.0 {
                indices.push(i as u32);
                values.push(v);
            }
        }
        SparseVec {
            dim: x.len(),
            indices,
            values,
        }
    }

    /// One-hot vector `e_i` of the given dimension.
    pub fn unit(dim: usize, i: usize) -> Self {
        assert!(i < dim, "unit index out of bounds");
        SparseVec::from_parts(dim, vec![i as u32], vec![1.0])
    }

    /// Logical dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Stored indices (sorted).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values, parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at position `i` (`0.0` if not stored).
    pub fn get(&self, i: usize) -> f64 {
        match self.indices.binary_search(&(i as u32)) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterator over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices
            .iter()
            .zip(&self.values)
            .map(|(&i, &v)| (i as usize, v))
    }

    /// Densifies into a `Vec<f64>` of length `dim`.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            d[i] = v;
        }
        d
    }

    /// Sum of stored values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Euclidean norm.
    pub fn l2_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scales all values in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Keeps only the `k` largest-magnitude entries (ties broken toward
    /// lower indices), preserving sorted index order. This is the kernel
    /// of truncated approximate search (Section 4.6 of the paper): walk
    /// distributions concentrate on few objects, so dropping the tail
    /// after each propagation step bounds work with little accuracy loss.
    /// The `k` kept entries are selected in linear time; only they are
    /// sorted.
    pub fn truncated_top(self, k: usize) -> SparseVec {
        if self.nnz() <= k {
            return self;
        }
        let mut order: Vec<usize> = (0..self.nnz()).collect();
        if k > 0 {
            // |value| descending, then index ascending: a total order, so
            // the kept set is the one a full sort would keep.
            order.select_nth_unstable_by(k - 1, |&a, &b| {
                self.values[b]
                    .abs()
                    .total_cmp(&self.values[a].abs())
                    .then_with(|| self.indices[a].cmp(&self.indices[b]))
            });
        }
        let keep = &mut order[..k];
        keep.sort_unstable();
        SparseVec {
            dim: self.dim,
            indices: keep.iter().map(|&i| self.indices[i]).collect(),
            values: keep.iter().map(|&i| self.values[i]).collect(),
        }
    }

    /// Merge-style sparse dot product.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn dot(&self, rhs: &SparseVec) -> f64 {
        assert_eq!(self.dim, rhs.dim, "sparse dot dimension mismatch");
        let mut s = 0.0;
        let y = (rhs.indices(), rhs.values());
        for_each_common((self.indices(), self.values()), y, |_, a, b| s += a * b);
        s
    }

    /// Cosine similarity; `0.0` when either vector is zero. This is exactly
    /// the normalized-HeteSim combination rule.
    pub fn cosine(&self, rhs: &SparseVec) -> f64 {
        let d = self.dot(rhs);
        let n = self.l2_norm() * rhs.l2_norm();
        if n == 0.0 {
            0.0
        } else {
            d / n
        }
    }
}

/// Calls `f(i, x[i], y[i])` for every index `i` stored in both sparse
/// vectors, each given as (strictly increasing indices, values), in
/// ascending `i`: the merge behind [`SparseVec::dot`].
pub fn for_each_common(x: (&[u32], &[f64]), y: (&[u32], &[f64]), mut f: impl FnMut(u32, f64, f64)) {
    let (mut i, mut j) = (0, 0);
    while i < x.0.len() && j < y.0.len() {
        match x.0[i].cmp(&y.0[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(x.0[i], x.1[i], y.1[j]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Dense dot product.
pub fn dot_dense(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dense dot dimension mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean norm of a dense slice.
pub fn l2_norm_dense(a: &[f64]) -> f64 {
    a.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Cosine similarity of two dense slices; `0.0` when either is zero.
pub fn cosine_dense(a: &[f64], b: &[f64]) -> f64 {
    let n = l2_norm_dense(a) * l2_norm_dense(b);
    if n == 0.0 {
        0.0
    } else {
        dot_dense(a, b) / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_roundtrip() {
        let v = SparseVec::from_dense(&[0.0, 1.5, 0.0, -2.0]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(1), 1.5);
        assert_eq!(v.get(0), 0.0);
        assert_eq!(v.to_dense(), vec![0.0, 1.5, 0.0, -2.0]);
    }

    #[test]
    fn unit_vector() {
        let e = SparseVec::unit(5, 2);
        assert_eq!(e.sum(), 1.0);
        assert_eq!(e.get(2), 1.0);
        assert_eq!(e.l2_norm(), 1.0);
    }

    #[test]
    fn sparse_dot_disjoint_is_zero() {
        let a = SparseVec::from_parts(4, vec![0, 2], vec![1.0, 1.0]);
        let b = SparseVec::from_parts(4, vec![1, 3], vec![1.0, 1.0]);
        assert_eq!(a.dot(&b), 0.0);
    }

    #[test]
    fn sparse_dot_matches_dense() {
        let a = SparseVec::from_dense(&[1.0, 0.0, 3.0, 0.5]);
        let b = SparseVec::from_dense(&[2.0, 5.0, 1.0, 0.0]);
        assert_eq!(a.dot(&b), dot_dense(&a.to_dense(), &b.to_dense()));
    }

    #[test]
    fn cosine_self_is_one() {
        let a = SparseVec::from_dense(&[0.3, 0.0, 0.7]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        let a = SparseVec::from_dense(&[0.3, 0.7]);
        let z = SparseVec::zeros(2);
        assert_eq!(a.cosine(&z), 0.0);
        assert_eq!(z.cosine(&z), 0.0);
    }

    #[test]
    fn cosine_bounds() {
        let a = SparseVec::from_dense(&[1.0, 2.0, 3.0]);
        let b = SparseVec::from_dense(&[-3.0, 0.0, 1.0]);
        let c = a.cosine(&b);
        assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn scale_in_place() {
        let mut a = SparseVec::from_dense(&[1.0, 0.0, 2.0]);
        a.scale(0.5);
        assert_eq!(a.to_dense(), vec![0.5, 0.0, 1.0]);
    }

    #[test]
    fn dense_helpers() {
        assert_eq!(dot_dense(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((l2_norm_dense(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((cosine_dense(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(cosine_dense(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_parts_panic() {
        SparseVec::from_parts(4, vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    fn truncated_top_keeps_largest() {
        let v = SparseVec::from_dense(&[0.1, 0.9, 0.0, -0.5, 0.3]);
        let t = v.truncated_top(2);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(1), 0.9);
        assert_eq!(t.get(3), -0.5);
        assert_eq!(t.get(0), 0.0);
        // Indices stay sorted.
        assert!(t.indices().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn truncated_top_noop_when_k_large() {
        let v = SparseVec::from_dense(&[0.1, 0.9]);
        assert_eq!(v.clone().truncated_top(10), v);
        assert_eq!(v.clone().truncated_top(2), v);
    }

    #[test]
    fn truncated_top_zero_empties() {
        let v = SparseVec::from_dense(&[0.1, 0.9]);
        assert_eq!(v.truncated_top(0).nnz(), 0);
    }
}
