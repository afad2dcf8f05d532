use crate::cache::{CacheStats, Halves, PathCache};
use crate::decompose::{check_half_shapes, decompose, half_factors, Factor};
use crate::reachable::walk;
use crate::{CoreError, Result};
use hetesim_graph::{Hin, MetaPath};
use hetesim_sparse::{chain, parallel, CsrMatrix, SparseVec};
use std::borrow::Cow;
use std::sync::Arc;

/// The HeteSim query engine.
///
/// Borrows a network immutably and memoizes the materialized half-path
/// products per relevance path, so the expensive matrix chain is paid once
/// per path and every subsequent query — full matrix, pair, single-source
/// row, top-k — reuses it (the Section 4.6 off-line/on-line split).
///
/// All scores are the *normalized* HeteSim of Definition 10 (cosine form)
/// unless the method name says `unnormalized`, which yields the raw
/// pairwise meeting probability of Definition 3 / Equation 6.
#[derive(Debug)]
pub struct HeteSimEngine<'a> {
    hin: &'a Hin,
    cache: PathCache,
    threads: usize,
}

impl<'a> HeteSimEngine<'a> {
    /// Creates an engine with the default worker-thread count:
    /// `HETESIM_THREADS` if set, otherwise the machine's available
    /// parallelism (see [`parallel::default_threads`]). Results are
    /// bit-identical at every thread count; use
    /// [`HeteSimEngine::with_threads`] with `threads = 1` for an
    /// explicitly serial engine.
    pub fn new(hin: &'a Hin) -> Self {
        Self::with_threads(hin, parallel::default_threads())
    }

    /// Creates an engine that runs large multiplications and query stages
    /// with the given number of worker threads. `threads = 1` is the
    /// explicit serial path; `threads = 0` means "auto" (same default as
    /// [`HeteSimEngine::new`]).
    pub fn with_threads(hin: &'a Hin, threads: usize) -> Self {
        HeteSimEngine {
            hin,
            cache: PathCache::new(),
            threads: if threads == 0 {
                parallel::default_threads()
            } else {
                threads
            },
        }
    }

    /// Caps the path cache at approximately `budget_bytes` resident bytes
    /// (`0` = unlimited, the default). Once the cap is reached, the least
    /// recently used half-path products are evicted; re-querying
    /// an evicted path transparently rebuilds it. This is what makes
    /// long-running servers safe on bounded memory — see
    /// [`PathCache`] for the eviction policy.
    pub fn with_cache_budget(self, budget_bytes: u64) -> Self {
        self.cache.set_budget_bytes(budget_bytes);
        self
    }

    /// Pre-materializes the half-path products of `path` so later queries
    /// along it are pure cache hits (the paper's Section 4.6 "compute
    /// frequently-used relevance paths off-line" step). Idempotent: warming
    /// an already-cached path is a no-op cache hit.
    pub fn warm(&self, path: &MetaPath) -> Result<()> {
        self.halves(path).map(|_| ())
    }

    /// Materializes (or fetches) the half-path products of `path` and
    /// hands back the shared artifacts. This is the snapshot writer's
    /// entry point: [`crate::snapshot::write_snapshot`] serializes the
    /// `left`/`right` halves it returns.
    pub fn materialized_halves(&self, path: &MetaPath) -> Result<Arc<Halves>> {
        self.halves(path)
    }

    /// Installs externally produced half-products for `path` — the
    /// snapshot *load* path. Only the raw halves come from outside; the
    /// derived structures (transpose, row norms) are recomputed here by
    /// the same deterministic code [`HeteSimEngine::warm`] runs, so an
    /// engine restored from a snapshot is bitwise-identical to one that
    /// built the products itself. The halves are validated (shapes the
    /// path has on this network, finite values) before they are cached.
    /// Equal halves of a symmetric path are stored once, as
    /// [`HeteSimEngine::warm`] stores them.
    pub fn install_halves(&self, path: &MetaPath, left: CsrMatrix, right: CsrMatrix) -> Result<()> {
        check_half_shapes(self.hin, path, &left, &right)?;
        let right = (!(path.is_symmetric() && left == right)).then_some(right);
        self.cache
            .insert(&path.cache_key(), Arc::new(Halves::new(left, right)?));
        Ok(())
    }

    /// The underlying network.
    pub fn hin(&self) -> &'a Hin {
        self.hin
    }

    /// Counters and residency of the half-path cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Configured cache budget in bytes (`0` = unlimited).
    pub fn cache_budget_bytes(&self) -> u64 {
        self.cache.budget_bytes()
    }

    /// Drops all memoized half-path products.
    pub fn clear_cache(&self) {
        self.cache.clear()
    }

    /// Chain product of *raw* adjacency matrices with row normalization
    /// fused into the multiplications: each factor's row-sum divisors are
    /// applied while its values stream through the SpGEMM numeric phase,
    /// so the row-stochastic chain is never materialized. Bit-identical to
    /// normalize-then-multiply at every thread count (see
    /// [`chain::ChainPlan::execute`]).
    fn chain_product_fused(
        &self,
        mats: &[Cow<'_, CsrMatrix>],
        divisors: &[Vec<f64>],
    ) -> Result<CsrMatrix> {
        let refs: Vec<&CsrMatrix> = mats.iter().map(|m| m.as_ref()).collect();
        let divs: Vec<&[f64]> = divisors.iter().map(|d| d.as_slice()).collect();
        Ok(chain::multiply_chain(&refs, Some(&divs), self.threads)?)
    }

    /// Materializes (or fetches) the half-path products of a path.
    ///
    /// A symmetric path (`P = P⁻¹`, always of even length) builds only
    /// `PM_PL`: its `PR⁻¹` chain has the same factors, divisors and
    /// planner order (`step_adjacency(s.reversed())` of the mirrored step
    /// is `step_adjacency(s)`), so `PM_PR⁻¹` would be bitwise the same
    /// matrix, and [`Halves::new`] shares it.
    pub(crate) fn halves(&self, path: &MetaPath) -> Result<Arc<Halves>> {
        let key = path.cache_key();
        self.cache.get_or_build(&key, || {
            let _span = hetesim_obs::span!(
                "core.engine.build_halves",
                steps = path.steps().len(),
                odd = (path.steps().len() % 2) as u64,
            );
            let (d, dl, dr) = {
                // Normalize stage: splitting the path into half chains
                // and computing each factor's row-sum divisors. The
                // O(nnz) divisions themselves happen inside the chain
                // products (fused normalization) — only the O(nrows)
                // divisor vectors are materialized here.
                let _stage = hetesim_obs::span("core.engine.normalize");
                let d = decompose(self.hin, path)?;
                let divisors = |ms: &[Cow<'_, CsrMatrix>]| -> Vec<Vec<f64>> {
                    ms.iter().map(|m| m.row_sum_divisors()).collect()
                };
                let dl = divisors(&d.left);
                let dr = (!path.is_symmetric()).then(|| divisors(&d.right_rev));
                (d, dl, dr)
            };
            let (left, right) = {
                let _stage = hetesim_obs::span("core.engine.chain");
                let left = self.chain_product_fused(&d.left, &dl)?;
                let right = dr
                    .map(|dr| self.chain_product_fused(&d.right_rev, &dr))
                    .transpose()?;
                (left, right)
            };
            // The cosine stage: everything needed to turn raw half
            // products into normalized scores (norms + transposed right
            // half + finiteness validation of both operands).
            let _stage = hetesim_obs::span("core.engine.cosine");
            Ok::<_, CoreError>(Halves::new(left, right)?)
        })
    }

    fn check_source(&self, path: &MetaPath, a: u32) -> Result<()> {
        let n = self.hin.node_count(path.source_type());
        if (a as usize) < n {
            Ok(())
        } else {
            Err(CoreError::NodeOutOfRange {
                endpoint: "source",
                index: a,
                count: n,
            })
        }
    }

    fn check_target(&self, path: &MetaPath, b: u32) -> Result<()> {
        let n = self.hin.node_count(path.target_type());
        if (b as usize) < n {
            Ok(())
        } else {
            Err(CoreError::NodeOutOfRange {
                endpoint: "target",
                index: b,
                count: n,
            })
        }
    }

    /// Unnormalized relevance matrix `PM_PL · PM_PR⁻¹ᵀ` (Equation 6): entry
    /// `(a, b)` is the probability the two walkers meet.
    pub fn matrix_unnormalized(&self, path: &MetaPath) -> Result<CsrMatrix> {
        let _span = hetesim_obs::span("core.engine.matrix_unnormalized");
        let h = self.halves(path)?;
        Ok(parallel::matmul_parallel(
            &h.left,
            &h.right_t,
            self.threads,
        )?)
    }

    /// Normalized relevance matrix (Definition 10): the cosine form, every
    /// entry in `[0, 1]`.
    pub fn matrix(&self, path: &MetaPath) -> Result<CsrMatrix> {
        let _span = hetesim_obs::span("core.engine.matrix");
        let h = self.halves(path)?;
        let mut m = parallel::matmul_parallel(&h.left, &h.right_t, self.threads)?;
        // Scale entry (a, b) by 1 / (||left_a|| * ||right_b||) in place.
        // Any stored entry has both norms > 0, since the product entry
        // requires overlapping support; they are norms of probability
        // rows, so the quotient cannot underflow to a dropped zero.
        m.map_values(|a, b, v| {
            let denom = h.left_norms[a] * h.right_norms[b];
            debug_assert!(denom > 0.0);
            v / denom
        });
        Ok(m)
    }

    /// Normalized HeteSim of one pair.
    pub fn pair(&self, path: &MetaPath, a: u32, b: u32) -> Result<f64> {
        self.check_source(path, a)?;
        self.check_target(path, b)?;
        let h = self.halves(path)?;
        Ok(h.left.row(a as usize).cosine(&h.right.row(b as usize)))
    }

    /// Unnormalized HeteSim (meeting probability) of one pair.
    pub fn pair_unnormalized(&self, path: &MetaPath, a: u32, b: u32) -> Result<f64> {
        self.check_source(path, a)?;
        self.check_target(path, b)?;
        let h = self.halves(path)?;
        Ok(h.left.row(a as usize).dot(&h.right.row(b as usize)))
    }

    /// Normalized HeteSim of one pair computed *online*: both walkers'
    /// distributions are propagated as sparse vectors through the path's
    /// borrowed factors (see [`walk`]), without materializing the
    /// half-path matrices or copying the network. Cheaper for one-off
    /// queries on paths that will not be reused; the ablation benches
    /// compare the two modes.
    pub fn pair_online(&self, path: &MetaPath, a: u32, b: u32) -> Result<f64> {
        let _span = hetesim_obs::span("core.engine.pair_online");
        self.walk_pair(path, a, b, walk)
    }

    /// Approximate normalized HeteSim of one pair: both walkers propagate
    /// online and their distributions are truncated to the `keep`
    /// largest-mass objects after every step (Section 4.6, optimization 3:
    /// "approximate algorithms … fasten the search with a small loss of
    /// accuracy"). With `keep >=` the widest distribution encountered this
    /// is exact; smaller `keep` trades accuracy for bounded per-step work.
    pub fn pair_truncated(&self, path: &MetaPath, a: u32, b: u32, keep: usize) -> Result<f64> {
        let _span = hetesim_obs::span!("core.engine.pair_truncated", keep = keep);
        self.walk_pair(path, a, b, |mut v, factors| {
            for f in factors {
                v = walk(v, std::slice::from_ref(f)).truncated_top(keep);
            }
            v
        })
    }

    /// Walks both endpoints of a pair to the middle with `propagate` and
    /// returns the cosine of the two distributions.
    fn walk_pair(
        &self,
        path: &MetaPath,
        a: u32,
        b: u32,
        propagate: impl Fn(SparseVec, &[Factor]) -> SparseVec,
    ) -> Result<f64> {
        self.check_source(path, a)?;
        self.check_target(path, b)?;
        let (left, right) = half_factors(self.hin, path);
        let la = propagate(
            SparseVec::unit(self.hin.node_count(path.source_type()), a as usize),
            &left,
        );
        let rb = propagate(
            SparseVec::unit(self.hin.node_count(path.target_type()), b as usize),
            &right,
        );
        Ok(la.cosine(&rb))
    }

    /// Normalized relevance of one source against *all* targets, as a dense
    /// row (zeros where the walkers cannot meet). Only the targets sharing a
    /// middle object with the source are scored: the pruned walk of
    /// [`top_k`](Self::top_k) accumulates straight into the zeroed row.
    pub fn single_source(&self, path: &MetaPath, a: u32) -> Result<Vec<f64>> {
        let _span = hetesim_obs::span("core.engine.single_source");
        self.check_source(path, a)?;
        let h = self.halves(path)?;
        let mut row = vec![0.0; h.right.nrows()];
        let un = h.left_norms[a as usize];
        for t in crate::topk::reach(&h, a, &mut row) {
            let t = t as usize;
            let denom = un * h.right_norms[t];
            row[t] = if denom == 0.0 { 0.0 } else { row[t] / denom };
        }
        Ok(row)
    }

    /// Top-`k` targets for one source, using pruned search (Section 4.6,
    /// optimization 3): only targets sharing at least one middle object
    /// with the source are ever scored. Runs on the calling thread.
    pub fn top_k(&self, path: &MetaPath, a: u32, k: usize) -> Result<Vec<crate::Ranked>> {
        let _span = hetesim_obs::span!("core.engine.top_k", k = k);
        self.check_source(path, a)?;
        let h = self.halves(path)?;
        let _stage = hetesim_obs::span("core.engine.topk");
        Ok(crate::topk::top_k(&h, a, k))
    }

    /// The `k` most relevant `(source, target)` pairs across the whole
    /// relevance matrix — the path-based analogue of a top-k similarity
    /// join.
    pub fn top_k_pairs(&self, path: &MetaPath, k: usize) -> Result<Vec<crate::topk::RankedPair>> {
        let _span = hetesim_obs::span!("core.engine.top_k_pairs", k = k);
        let h = self.halves(path)?;
        Ok(crate::topk::top_k_pairs_parallel(&h, k, self.threads))
    }

    /// Decomposes one pair's score over the middle objects the two walkers
    /// meet at (provenance: "related *through what*"). Contributions sum
    /// to the normalized HeteSim score; at most `k` largest are returned.
    pub fn explain(
        &self,
        path: &MetaPath,
        a: u32,
        b: u32,
        k: usize,
    ) -> Result<crate::explain::Explanation> {
        self.check_source(path, a)?;
        self.check_target(path, b)?;
        let h = self.halves(path)?;
        let la = h.left.row(a as usize);
        let rb = h.right.row(b as usize);
        let denom = la.l2_norm() * rb.l2_norm();
        let mut meetings = Vec::new();
        let mut score = 0.0;
        if denom > 0.0 {
            let (mut i, mut j) = (0usize, 0usize);
            let (li, lv) = (la.indices(), la.values());
            let (ri, rv) = (rb.indices(), rb.values());
            while i < li.len() && j < ri.len() {
                match li[i].cmp(&ri[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let contribution = lv[i] * rv[j] / denom;
                        score += contribution;
                        meetings.push(crate::explain::Meeting {
                            middle: li[i],
                            contribution,
                        });
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        meetings.sort_by(|x, y| {
            y.contribution
                .partial_cmp(&x.contribution)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| x.middle.cmp(&y.middle))
        });
        meetings.truncate(k);
        Ok(crate::explain::Explanation {
            middle: crate::explain::middle_kind(path),
            meetings,
            score,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_graph::{HinBuilder, Schema};
    use hetesim_sparse::CooMatrix;

    /// Figure 4-style toy network.
    fn fig4() -> Hin {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let c = s.add_type("conference").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let pb = s.add_relation("published_in", p, c).unwrap();
        let mut b = HinBuilder::new(s);
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P3", 1.0).unwrap();
        b.add_edge_by_name(w, "Bob", "P4", 1.0).unwrap();
        b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P2", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P3", "SIGMOD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P4", "SIGMOD", 1.0).unwrap();
        b.build()
    }

    fn ids(hin: &Hin) -> (u32, u32, u32, u32) {
        let a = hin.schema().type_id("author").unwrap();
        let c = hin.schema().type_id("conference").unwrap();
        (
            hin.node_id(a, "Tom").unwrap(),
            hin.node_id(a, "Mary").unwrap(),
            hin.node_id(c, "KDD").unwrap(),
            hin.node_id(c, "SIGMOD").unwrap(),
        )
    }

    /// A one-row matrix with `ncols` columns.
    fn one_row(ncols: usize) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(1, ncols, 1);
        coo.push(0, 0, 1.0);
        coo.to_csr()
    }

    #[test]
    fn install_halves_rejects_a_left_half_of_the_wrong_shape() {
        let hin = fig4();
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let built = HeteSimEngine::new(&hin).materialized_halves(&apc).unwrap();
        let e = HeteSimEngine::new(&hin);
        let err = e
            .install_halves(&apc, one_row(4), (*built.right).clone())
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::HalfShape {
                half: "left",
                expected: (3, 4),
                found: (1, 4),
            }
        );
        assert_eq!(e.cache_stats().entries, 0);
        // Nothing was cached, so a query builds the real halves instead
        // of indexing past the short one.
        let (_, mary, kdd, _) = ids(&hin);
        assert_eq!(
            e.pair(&apc, mary, kdd).unwrap(),
            HeteSimEngine::new(&hin).pair(&apc, mary, kdd).unwrap()
        );
    }

    #[test]
    fn install_halves_rejects_a_right_half_of_the_wrong_shape() {
        let hin = fig4();
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let built = HeteSimEngine::new(&hin).materialized_halves(&apc).unwrap();
        let e = HeteSimEngine::new(&hin);
        let err = e
            .install_halves(&apc, (*built.left).clone(), one_row(4))
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::HalfShape {
                half: "right",
                expected: (2, 4),
                found: (1, 4),
            }
        );
        assert!(err.to_string().contains("right half is 1x4"), "{err}");
        // Both halves one middle column short: the left half is caught.
        let narrow = |m: &CsrMatrix| {
            let mut coo = CooMatrix::with_capacity(m.nrows(), 3, m.nnz());
            for (r, c, v) in m.iter().filter(|&(_, c, _)| c < 3) {
                coo.push(r, c, v);
            }
            coo.to_csr()
        };
        let err = e
            .install_halves(&apc, narrow(&built.left), narrow(&built.right))
            .unwrap_err();
        assert!(matches!(err, CoreError::HalfShape { half: "left", .. }));
        assert_eq!(e.cache_stats().entries, 0);
    }

    #[test]
    fn symmetric_path_stores_one_half() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apa = MetaPath::parse(hin.schema(), "APA").unwrap();
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let h = e.materialized_halves(&apa).unwrap();
        assert!(h.is_shared());
        assert!(!e.materialized_halves(&apc).unwrap().is_shared());
        // Installing equal halves of a symmetric path shares them too,
        // with the residency of the built entry.
        let installed = HeteSimEngine::new(&hin);
        installed
            .install_halves(&apa, (*h.left).clone(), (*h.right).clone())
            .unwrap();
        assert!(installed.materialized_halves(&apa).unwrap().is_shared());
        let fresh = HeteSimEngine::new(&hin);
        fresh.warm(&apa).unwrap();
        assert_eq!(installed.cache_stats().bytes, fresh.cache_stats().bytes);
    }

    #[test]
    fn example_2_tom_kdd_apc() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let (tom, _, kdd, sigmod) = ids(&hin);
        // Paper Example 2: HeteSim(Tom, KDD | APC) = 0.5 (unnormalized),
        // with I(KDD|PC) = {P1, P2} here.
        let raw = e.pair_unnormalized(&apc, tom, kdd).unwrap();
        assert!((raw - 0.5).abs() < 1e-12);
        // Tom never meets SIGMOD along APC.
        assert_eq!(e.pair(&apc, tom, sigmod).unwrap(), 0.0);
        // Normalized value is within [0, 1].
        let n = e.pair(&apc, tom, kdd).unwrap();
        assert!(n > 0.0 && n <= 1.0 + 1e-12);
    }

    #[test]
    fn symmetry_property_3() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let cpa = apc.reversed();
        let (tom, mary, kdd, sigmod) = ids(&hin);
        for &(a, c) in &[(tom, kdd), (tom, sigmod), (mary, kdd), (mary, sigmod)] {
            let forward = e.pair(&apc, a, c).unwrap();
            let backward = e.pair(&cpa, c, a).unwrap();
            assert!(
                (forward - backward).abs() < 1e-12,
                "HeteSim({a},{c}|APC)={forward} != HeteSim({c},{a}|CPA)={backward}"
            );
        }
    }

    #[test]
    fn self_maximum_on_symmetric_path() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apa = MetaPath::parse(hin.schema(), "APA").unwrap();
        let a = hin.schema().type_id("author").unwrap();
        for name in ["Tom", "Mary", "Bob"] {
            let i = hin.node_id(a, name).unwrap();
            let v = e.pair(&apa, i, i).unwrap();
            assert!((v - 1.0).abs() < 1e-12, "HeteSim({name},{name}|APA)={v}");
        }
    }

    #[test]
    fn matrix_agrees_with_pairs() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let m = e.matrix(&apc).unwrap();
        for a in 0..3u32 {
            for c in 0..2u32 {
                let p = e.pair(&apc, a, c).unwrap();
                assert!((m.get(a as usize, c as usize) - p).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matrix_values_in_unit_interval() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        for text in ["APC", "AP", "APA", "CPA"] {
            let path = MetaPath::parse(hin.schema(), text).unwrap();
            let m = e.matrix(&path).unwrap();
            for (_, _, v) in m.iter() {
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&v),
                    "path {text}: value {v} out of range"
                );
            }
        }
    }

    #[test]
    fn single_source_matches_matrix_row() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let m = e.matrix(&apc).unwrap();
        for a in 0..3u32 {
            let row = e.single_source(&apc, a).unwrap();
            for (c, &v) in row.iter().enumerate() {
                assert!((v - m.get(a as usize, c)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn online_pair_matches_cached_pair() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        for text in ["APC", "AP", "APAPC"] {
            let path = MetaPath::parse(hin.schema(), text).unwrap();
            let ns = hin.node_count(path.source_type());
            let nt = hin.node_count(path.target_type());
            for a in 0..ns as u32 {
                for b in 0..nt as u32 {
                    let cached = e.pair(&path, a, b).unwrap();
                    let online = e.pair_online(&path, a, b).unwrap();
                    assert!(
                        (cached - online).abs() < 1e-12,
                        "path {text} pair ({a},{b}): cached {cached} vs online {online}"
                    );
                }
            }
        }
    }

    #[test]
    fn atomic_relation_definition_7() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let ap = MetaPath::parse(hin.schema(), "AP").unwrap();
        let (tom, ..) = ids(&hin);
        let p = hin.schema().type_id("paper").unwrap();
        let p1 = hin.node_id(p, "P1").unwrap();
        let p3 = hin.node_id(p, "P3").unwrap();
        // Tom wrote P1 (among 2 papers, P1 has 1 writer):
        // unnormalized = 1 / (2 * 1) = 0.5.
        let v = e.pair_unnormalized(&ap, tom, p1).unwrap();
        assert!((v - 0.5).abs() < 1e-12);
        // Tom did not write P3.
        assert_eq!(e.pair(&ap, tom, p3).unwrap(), 0.0);
    }

    #[test]
    fn cache_is_reused_across_queries() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let _ = e.pair(&apc, 0, 0).unwrap();
        let _ = e.pair(&apc, 1, 1).unwrap();
        let _ = e.matrix(&apc).unwrap();
        let stats = e.cache_stats();
        assert_eq!(stats.misses, 1);
        assert!(stats.hits >= 2);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        e.clear_cache();
        assert_eq!(e.cache_stats(), CacheStats::default());
    }

    #[test]
    fn out_of_range_nodes_error() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        assert!(matches!(
            e.pair(&apc, 99, 0),
            Err(CoreError::NodeOutOfRange {
                endpoint: "source",
                ..
            })
        ));
        assert!(matches!(
            e.pair(&apc, 0, 99),
            Err(CoreError::NodeOutOfRange {
                endpoint: "target",
                ..
            })
        ));
    }

    /// A Zipf-skewed network: one star author writes most of the papers,
    /// several authors write nothing (empty matrix rows), and venue mass
    /// concentrates on one conference — the load-balance worst case the
    /// flop-balanced scheduler exists for.
    fn skewed_hin() -> Hin {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let c = s.add_type("conference").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let pb = s.add_relation("published_in", p, c).unwrap();
        let mut b = HinBuilder::new(s);
        // Star author writes 40 papers; a Zipf-ish tail writes 0-2 each.
        for i in 0..40 {
            b.add_edge_by_name(w, "Star", &format!("P{i}"), 1.0)
                .unwrap();
        }
        let mut x = 11usize;
        for j in 0..12 {
            let author = format!("A{j}");
            for _ in 0..(j % 3) {
                x = (x * 1103515245 + 12345) % 2147483648;
                b.add_edge_by_name(w, &author, &format!("P{}", x % 40), 1.0)
                    .unwrap();
            }
            if j % 3 == 0 {
                // Authors with no papers at all: empty rows in U_AP.
                b.add_node(a, &author);
            }
        }
        // Most papers go to one hot venue, the rest spread thin.
        for i in 0..40 {
            let venue = if i % 4 == 0 {
                format!("V{}", i % 7)
            } else {
                "HotConf".to_string()
            };
            b.add_edge_by_name(pb, &format!("P{i}"), &venue, 1.0)
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn threads_produce_identical_results() {
        for hin in [fig4(), skewed_hin()] {
            let serial = HeteSimEngine::with_threads(&hin, 1);
            for text in ["APC", "APA", "AP", "APAPC"] {
                let path = MetaPath::parse(hin.schema(), text).unwrap();
                let want_matrix = serial.matrix(&path).unwrap();
                let want_top = serial.top_k(&path, 0, 10).unwrap();
                let want_pairs = serial.top_k_pairs(&path, 10).unwrap();
                // Includes threads far beyond the number of source rows.
                for threads in [2usize, 4, 7, 1024] {
                    let par = HeteSimEngine::with_threads(&hin, threads);
                    assert_eq!(
                        par.matrix(&path).unwrap(),
                        want_matrix,
                        "path {text} threads {threads}"
                    );
                    assert_eq!(par.top_k(&path, 0, 10).unwrap(), want_top);
                    assert_eq!(par.top_k_pairs(&path, 10).unwrap(), want_pairs);
                }
            }
        }
    }

    #[test]
    fn with_threads_zero_means_auto() {
        let hin = fig4();
        let auto = HeteSimEngine::with_threads(&hin, 0);
        assert_eq!(auto.threads, hetesim_sparse::parallel::default_threads());
        assert!(auto.threads >= 1);
        let serial = HeteSimEngine::with_threads(&hin, 1);
        assert_eq!(serial.threads, 1);
    }

    #[test]
    fn explanation_decomposes_the_score() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let (tom, _, kdd, sigmod) = ids(&hin);
        let ex = e.explain(&apc, tom, kdd, 10).unwrap();
        // Contributions sum to the normalized pair score.
        let pair = e.pair(&apc, tom, kdd).unwrap();
        assert!((ex.score - pair).abs() < 1e-12);
        let sum: f64 = ex.meetings.iter().map(|m| m.contribution).sum();
        assert!((sum - pair).abs() < 1e-12);
        // Tom meets KDD through exactly P1 and P2 (paper indices 0, 1).
        let p = hin.schema().type_id("paper").unwrap();
        assert_eq!(ex.middle, crate::explain::MiddleKind::Type(p));
        let mids: Vec<u32> = ex.meetings.iter().map(|m| m.middle).collect();
        assert_eq!(mids.len(), 2);
        assert!(mids.contains(&hin.node_id(p, "P1").unwrap()));
        assert!(mids.contains(&hin.node_id(p, "P2").unwrap()));
        // No meeting points for a zero pair.
        let none = e.explain(&apc, tom, sigmod, 10).unwrap();
        assert!(none.meetings.is_empty());
        assert_eq!(none.score, 0.0);
        // Truncation caps the list but not the total score field.
        let capped = e.explain(&apc, tom, kdd, 1).unwrap();
        assert_eq!(capped.meetings.len(), 1);
        assert!((capped.score - pair).abs() < 1e-12);
    }

    #[test]
    fn explanation_on_odd_path_names_edge_objects() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let ap = MetaPath::parse(hin.schema(), "AP").unwrap();
        let (tom, ..) = ids(&hin);
        let p = hin.schema().type_id("paper").unwrap();
        let p1 = hin.node_id(p, "P1").unwrap();
        let ex = e.explain(&ap, tom, p1, 5).unwrap();
        let w = hin.schema().relation_id("writes").unwrap();
        assert_eq!(
            ex.middle,
            crate::explain::MiddleKind::EdgeObjects { relation: w }
        );
        // Tom and P1 meet at exactly one edge object: the (Tom, P1) edge.
        assert_eq!(ex.meetings.len(), 1);
    }

    #[test]
    fn top_k_pairs_matches_matrix_maxima() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let m = e.matrix(&apc).unwrap();
        let mut all: Vec<(u32, u32, f64)> =
            m.iter().map(|(a, b, v)| (a as u32, b as u32, v)).collect();
        all.sort_by(|x, y| {
            y.2.partial_cmp(&x.2)
                .unwrap()
                .then_with(|| (x.0, x.1).cmp(&(y.0, y.1)))
        });
        for k in [1usize, 2, 4, 100] {
            let pairs = e.top_k_pairs(&apc, k).unwrap();
            assert_eq!(pairs.len(), k.min(all.len()));
            for (got, want) in pairs.iter().zip(&all) {
                assert!((got.score - want.2).abs() < 1e-12);
            }
            // Sorted descending.
            for w in pairs.windows(2) {
                assert!(w[0].score >= w[1].score);
            }
        }
        assert!(e.top_k_pairs(&apc, 0).unwrap().is_empty());
    }

    #[test]
    fn truncated_pair_exact_with_large_keep() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        for text in ["APC", "APAPC", "AP"] {
            let path = MetaPath::parse(hin.schema(), text).unwrap();
            for a in 0..3u32 {
                let nt = hin.node_count(path.target_type()) as u32;
                for b in 0..nt {
                    let exact = e.pair(&path, a, b).unwrap();
                    let approx = e.pair_truncated(&path, a, b, 100).unwrap();
                    assert!(
                        (exact - approx).abs() < 1e-12,
                        "path {text} ({a},{b}): exact {exact} vs truncated {approx}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_pair_with_keep_one_follows_mode() {
        let hin = fig4();
        let e = HeteSimEngine::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        // keep=1 collapses each walker to its single most likely object;
        // the score stays within [0, 1] and remains 0 where exact is 0.
        for a in 0..3u32 {
            for b in 0..2u32 {
                let approx = e.pair_truncated(&apc, a, b, 1).unwrap();
                assert!((0.0..=1.0 + 1e-12).contains(&approx));
                if e.pair(&apc, a, b).unwrap() == 0.0 {
                    assert_eq!(approx, 0.0);
                }
            }
        }
    }

    #[test]
    fn author_with_no_papers_scores_zero() {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let c = s.add_type("conference").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let pb = s.add_relation("published_in", p, c).unwrap();
        let mut b = HinBuilder::new(s);
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
        let idle = b.add_node(a, "Idle");
        let hin = b.build();
        let e = HeteSimEngine::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        // "If O(s|R1) is empty we define the relevance to be 0."
        assert_eq!(e.pair(&apc, idle, 0).unwrap(), 0.0);
        let row = e.single_source(&apc, idle).unwrap();
        assert!(row.iter().all(|&v| v == 0.0));
    }
}
