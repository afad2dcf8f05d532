use hetesim_obs::lockcheck::{self, TrackedMutex as Mutex, TrackedRwLock as RwLock};
use hetesim_sparse::{CsrMatrix, SparseError};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};

pub use hetesim_obs::CacheStats;

/// The two materialized half-path products of a decomposed relevance path,
/// plus the derived structures every query needs.
///
/// This is the unit of memoization behind the Section 4.6 optimization:
/// "the concatenation of partially materialized reachable probability
/// matrices helps to fasten the computation". Once a path's halves are
/// built, single pairs are two row reads and a sparse dot; top-k queries
/// touch only the middle objects the source actually reaches.
///
/// On a symmetric path (`P = P⁻¹`) `PL` is `PR⁻¹` (Definitions 5 and 8),
/// so `left` and `right` point to one shared matrix.
#[derive(Debug)]
pub struct Halves {
    /// `PM_PL`: source type × middle (row-stochastic product).
    pub left: Arc<CsrMatrix>,
    /// `PM_PR⁻¹`: target type × middle; the same allocation as `left`
    /// on a symmetric path.
    pub right: Arc<CsrMatrix>,
    /// Transpose of `right` (middle × target), used by pruned top-k search.
    pub right_t: CsrMatrix,
    /// Euclidean norms of `left`'s rows (Definition 10 denominators).
    pub left_norms: Vec<f64>,
    /// Euclidean norms of `right`'s rows.
    pub right_norms: Vec<f64>,
}

impl Halves {
    /// Validates the raw half products and derives what queries need:
    /// row norms and the transposed right half. `right = None` marks a
    /// symmetric path, whose `PM_PR⁻¹` is `left` itself; that one matrix
    /// is checked and measured once and shared by both fields.
    pub fn new(left: CsrMatrix, right: Option<CsrMatrix>) -> Result<Halves, SparseError> {
        left.check_finite("hetesim left half")?;
        if let Some(right) = &right {
            right.check_finite("hetesim right half")?;
        }
        let left = Arc::new(left);
        let left_norms = left.row_l2_norms();
        let (right, right_norms) = match right {
            Some(right) => {
                let norms = right.row_l2_norms();
                (Arc::new(right), norms)
            }
            None => (Arc::clone(&left), left_norms.clone()),
        };
        let right_t = right.transpose();
        Ok(Halves {
            left,
            right,
            right_t,
            left_norms,
            right_norms,
        })
    }

    /// True when `left` and `right` are one shared matrix.
    pub fn is_shared(&self) -> bool {
        Arc::ptr_eq(&self.left, &self.right)
    }

    /// Approximate heap residency of the matrices and the two norm
    /// vectors: `left`, `right_t`, and `right` unless it is the shared
    /// `left`. CSR row pointers are `u32` (nnz is checked to fit the u32
    /// index space at construction), so a cached half costs
    /// `12·nnz + 4·(nrows+1)` matrix bytes — budgets sized against the
    /// old `usize` pointers hold strictly more entries now.
    pub fn mem_bytes(&self) -> usize {
        let right = if self.is_shared() {
            0
        } else {
            self.right.mem_bytes()
        };
        self.left.mem_bytes()
            + right
            + self.right_t.mem_bytes()
            + (self.left_norms.len() + self.right_norms.len()) * std::mem::size_of::<f64>()
    }
}

/// Cached halves plus the bookkeeping the byte-budgeted eviction policy
/// needs: their residency and the logical clock of their last access.
#[derive(Debug)]
struct Entry {
    value: Arc<Halves>,
    bytes: u64,
    /// Logical access time (ticks of the cache-wide counter). Updated on
    /// every hit under the read lock, which is why it is atomic.
    last_used: AtomicU64,
}

impl Entry {
    fn new(value: Arc<Halves>, bytes: u64, tick: u64) -> Self {
        Entry {
            value,
            bytes,
            last_used: AtomicU64::new(tick),
        }
    }
}

/// A concurrent memo table from path cache keys to materialized halves,
/// with an optional byte budget enforced by least-recently-used eviction.
///
/// Shared by reference inside [`crate::HeteSimEngine`]; a read-mostly
/// `RwLock` keeps concurrent access cheap, matching the "frequently-used
/// relevance paths are computed off-line, on-line search only locates rows"
/// usage pattern the paper describes. Lookups are mirrored into the
/// `core.cache.prefix_cache.*` observability counters when metrics are
/// enabled.
///
/// # Byte budget
///
/// [`PathCache::set_budget_bytes`] caps the approximate resident bytes of
/// the cached half-path products. When an insert pushes residency past
/// the cap, entries are evicted least-recently-used first until the cache
/// fits again; each eviction increments the
/// `core.cache.evictions` counter and the current residency is published
/// as the `core.cache.resident_bytes` gauge. A value whose own footprint
/// exceeds the whole budget is returned to the caller but never cached, so
/// resident bytes never exceed the budget. Evicting an entry only drops
/// the cache's reference: outstanding [`Arc`]s returned from earlier
/// lookups keep their data alive until released, and a later lookup of an
/// evicted key simply rebuilds it.
#[derive(Debug)]
pub struct PathCache {
    inner: RwLock<HashMap<String, Entry>>,
    /// Keys whose halves one caller is building right now; concurrent
    /// callers of such a key wait on `built` (single-flight builds).
    building: Mutex<HashSet<String>>,
    /// Notified whenever a build of a `building` key ends.
    built: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Approximate resident bytes of everything cached.
    bytes: AtomicU64,
    /// Byte budget; `0` means unlimited.
    budget: AtomicU64,
    /// Entries evicted to stay under the budget (does not count
    /// [`PathCache::clear`]).
    evictions: AtomicU64,
    /// Logical clock driving LRU ordering.
    tick: AtomicU64,
}

impl Default for PathCache {
    fn default() -> PathCache {
        PathCache {
            inner: RwLock::named("core.cache.inner", HashMap::new()),
            building: Mutex::named("core.cache.building", HashSet::new()),
            built: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            budget: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tick: AtomicU64::new(0),
        }
    }
}

impl PathCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        PathCache::default()
    }

    /// An empty cache that evicts least-recently-used entries once
    /// resident bytes would exceed `budget_bytes` (`0` = unlimited).
    pub fn with_budget_bytes(budget_bytes: u64) -> Self {
        let cache = PathCache::default();
        cache.budget.store(budget_bytes, Ordering::Relaxed);
        cache
    }

    /// Sets the byte budget (`0` = unlimited). Shrinking the budget below
    /// current residency evicts immediately.
    pub fn set_budget_bytes(&self, budget_bytes: u64) {
        self.budget.store(budget_bytes, Ordering::Relaxed);
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        self.evict_locked(&mut inner);
    }

    /// The configured byte budget (`0` = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Approximate bytes currently held by the cache.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries evicted so far to stay under the budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Evicts least-recently-used entries until residency fits the
    /// budget again. Caller holds the write lock.
    fn evict_locked(&self, inner: &mut HashMap<String, Entry>) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        while self.bytes.load(Ordering::Relaxed) > budget {
            // LRU scan: entry counts are small (one per distinct path), so
            // a linear pass beats maintaining an ordered structure under
            // the read-mostly lock.
            let oldest = inner
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            match oldest.and_then(|k| inner.remove(&k)) {
                Some(e) => {
                    self.bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    hetesim_obs::add("core.cache.evictions", 1);
                }
                None => break,
            }
        }
        hetesim_obs::set(
            "core.cache.resident_bytes",
            self.bytes.load(Ordering::Relaxed),
        );
    }

    /// The cached halves for `key`, counting the hit and refreshing the
    /// entry's LRU clock.
    fn lookup(&self, key: &str) -> Option<Arc<Halves>> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let e = inner.get(key)?;
        e.last_used.store(self.next_tick(), Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        hetesim_obs::add("core.cache.prefix_cache.hits", 1);
        hetesim_obs::trace_event("core.cache.hit");
        Some(Arc::clone(&e.value))
    }

    /// Fetches the halves for `key`, or builds and inserts them.
    ///
    /// A hit takes only the read lock. Builds are single-flight per key:
    /// while one caller builds a cold key, concurrent callers of the
    /// same key wait, then count a hit on the cached result. A failed
    /// build caches nothing, so the next waiter builds in turn; so does a
    /// waiter whose value was too large for the budget to cache.
    pub fn get_or_build<F, E>(&self, key: &str, build: F) -> Result<Arc<Halves>, E>
    where
        F: FnOnce() -> Result<Halves, E>,
    {
        if let Some(hit) = self.lookup(key) {
            return Ok(hit);
        }
        let mut building = self.building.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            // Checked again under `building`: a build that ended since
            // the lookup above has inserted its result by now.
            if let Some(hit) = self.lookup(key) {
                return Ok(hit);
            }
            if building.insert(key.to_string()) {
                break;
            }
            building =
                lockcheck::wait(&self.built, building).unwrap_or_else(PoisonError::into_inner);
        }
        drop(building);
        let _flight = Flight { cache: self, key };
        hetesim_obs::trace_event("core.cache.miss");
        let built = Arc::new(build()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        hetesim_obs::add("core.cache.prefix_cache.misses", 1);
        self.insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// Installs a pre-built entry under `key` — the snapshot warm-start
    /// path. Counted as neither hit nor miss (nothing was looked up);
    /// budget accounting and eviction behave exactly as for
    /// [`PathCache::get_or_build`], including refusing to cache a value
    /// larger than the whole budget.
    pub fn insert(&self, key: &str, value: Arc<Halves>) {
        let bytes = value.mem_bytes() as u64;
        let budget = self.budget.load(Ordering::Relaxed);
        if budget != 0 && bytes > budget {
            return;
        }
        let entry = Entry::new(value, bytes, self.next_tick());
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(old) = inner.insert(key.to_string(), entry) {
            self.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.evict_locked(&mut inner);
    }

    /// Number of cached paths.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters and residency since construction or the last clear.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops all cached halves and resets counters. Evicted entries are
    /// counted into `core.cache.prefix_cache.evictions`.
    pub fn clear(&self) {
        let evicted = self.len() as u64;
        hetesim_obs::add("core.cache.prefix_cache.evictions", evicted);
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        hetesim_obs::set("core.cache.resident_bytes", 0);
    }
}

/// One caller's build of a key in [`PathCache::get_or_build`]. Dropping
/// it, also when the build fails or panics, removes the key from
/// `building` and wakes the waiters.
struct Flight<'a> {
    cache: &'a PathCache,
    key: &'a str,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let mut building = self
            .cache
            .building
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        building.remove(self.key);
        self.cache.built.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_halves() -> Halves {
        let m = CsrMatrix::identity(2);
        Halves::new(m.clone(), Some(m)).unwrap()
    }

    #[test]
    fn build_once_then_hit() {
        let cache = PathCache::new();
        let mut builds = 0;
        for _ in 0..3 {
            let r: Result<_, ()> = cache.get_or_build("k", || {
                builds += 1;
                Ok(dummy_halves())
            });
            assert!(r.is_ok());
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0, "cached halves should report residency");
    }

    #[test]
    fn a_waiter_retries_after_a_failed_build() {
        let cache = PathCache::new();
        let builds = AtomicU64::new(0);
        let start = std::sync::Barrier::new(4);
        let failures = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache
                            .get_or_build("k", || {
                                let n = builds.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                if n == 0 {
                                    Err("first build fails")
                                } else {
                                    Ok(dummy_halves())
                                }
                            })
                            .is_err()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .filter(|&failed| failed)
                .count()
        });
        // The failure is not cached: exactly one later build succeeds and
        // every other caller hits it.
        assert_eq!(failures, 1);
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_shared_half_is_stored_and_counted_once() {
        let m = CsrMatrix::identity(3);
        let shared = Halves::new(m.clone(), None).unwrap();
        let separate = Halves::new(m.clone(), Some(m.clone())).unwrap();
        assert!(shared.is_shared() && !separate.is_shared());
        assert_eq!(shared.mem_bytes() + m.mem_bytes(), separate.mem_bytes());
        assert_eq!(shared.right_norms, separate.right_norms);
    }

    #[test]
    fn build_errors_are_propagated_and_not_cached() {
        let cache = PathCache::new();
        let r: Result<Arc<Halves>, &str> = cache.get_or_build("k", || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn clear_resets() {
        let cache = PathCache::new();
        let _: Result<_, ()> = cache.get_or_build("k", || Ok(dummy_halves()));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn distinct_keys_distinct_entries() {
        let cache = PathCache::new();
        let _: Result<_, ()> = cache.get_or_build("a", || Ok(dummy_halves()));
        let _: Result<_, ()> = cache.get_or_build("b", || Ok(dummy_halves()));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().entries, 2);
    }

    /// Bytes one dummy halves entry occupies, as the cache accounts it.
    fn entry_bytes() -> u64 {
        dummy_halves().mem_bytes() as u64
    }

    #[test]
    fn resident_bytes_never_exceed_budget() {
        let per = entry_bytes();
        // Room for exactly two entries.
        let cache = PathCache::with_budget_bytes(2 * per);
        for i in 0..10 {
            let _: Result<_, ()> = cache.get_or_build(&i.to_string(), || Ok(dummy_halves()));
            assert!(
                cache.resident_bytes() <= cache.budget_bytes(),
                "after insert {i}: resident {} > budget {}",
                cache.resident_bytes(),
                cache.budget_bytes()
            );
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 8);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let per = entry_bytes();
        let cache = PathCache::with_budget_bytes(2 * per);
        let _: Result<_, ()> = cache.get_or_build("a", || Ok(dummy_halves()));
        let _: Result<_, ()> = cache.get_or_build("b", || Ok(dummy_halves()));
        // Touch "a" so "b" becomes the LRU entry.
        let _: Result<_, ()> = cache.get_or_build("a", || panic!("a should be cached"));
        let _: Result<_, ()> = cache.get_or_build("c", || Ok(dummy_halves()));
        // "b" was evicted; "a" and "c" survive.
        let _: Result<_, ()> = cache.get_or_build("a", || panic!("a should have survived"));
        let _: Result<_, ()> = cache.get_or_build("c", || panic!("c should have survived"));
        let mut rebuilt = false;
        let _: Result<_, ()> = cache.get_or_build("b", || {
            rebuilt = true;
            Ok(dummy_halves())
        });
        assert!(rebuilt, "evicted entry must rebuild on re-query");
    }

    #[test]
    fn evicted_path_is_rebuilt_correctly() {
        let per = entry_bytes();
        let cache = PathCache::with_budget_bytes(per);
        let _: Result<_, ()> = cache.get_or_build("a", || Ok(dummy_halves()));
        // Inserting "b" evicts "a" (budget fits one entry).
        let _: Result<_, ()> = cache.get_or_build("b", || Ok(dummy_halves()));
        assert_eq!(cache.len(), 1);
        let again: Result<_, ()> = cache.get_or_build("a", || Ok(dummy_halves()));
        let h = again.unwrap();
        // The rebuilt entry carries full, correct data.
        assert_eq!(h.left.nrows(), 2);
        assert_eq!(h.left_norms, vec![1.0, 1.0]);
        assert!(cache.resident_bytes() <= per);
    }

    #[test]
    fn oversized_entry_is_served_but_not_cached() {
        let per = entry_bytes();
        let cache = PathCache::with_budget_bytes(per / 2);
        let r: Result<_, ()> = cache.get_or_build("big", || Ok(dummy_halves()));
        assert_eq!(r.unwrap().left.nrows(), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn shrinking_budget_evicts_immediately() {
        let per = entry_bytes();
        let cache = PathCache::new();
        for key in ["a", "b", "c"] {
            let _: Result<_, ()> = cache.get_or_build(key, || Ok(dummy_halves()));
        }
        assert_eq!(cache.resident_bytes(), 3 * per);
        cache.set_budget_bytes(per);
        assert!(cache.resident_bytes() <= per);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn zero_budget_means_unlimited() {
        let cache = PathCache::with_budget_bytes(0);
        for i in 0..20 {
            let _: Result<_, ()> = cache.get_or_build(&i.to_string(), || Ok(dummy_halves()));
        }
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.evictions(), 0);
    }
}
