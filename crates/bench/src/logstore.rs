//! Process-wide memoized store of simulated, indexed failure logs.
//!
//! Every consumer of a `(model, seed)` log — the paper-figure
//! experiments, the seed-sweep averages, the `repro` binary (including
//! its `bench` mode) — fetches it through [`LogStore::global`], so each
//! distinct log is simulated and indexed **exactly once per process**
//! and shared as an [`Arc<StreamView>`] with no cloning of record
//! vectors.
//!
//! The store counts simulations and cache hits so tests (and the
//! `repro bench` mode) can assert the exactly-once invariant:
//! [`LogStore::simulations`] must equal [`LogStore::entries`] no matter
//! how many experiments ran or how many threads raced on the same key.
//!
//! Concurrency: the map itself is guarded by a [`Mutex`] held only
//! long enough to clone a per-key cell; the simulation runs
//! outside that lock inside the cell's [`OnceLock`], so two threads
//! racing on *different* keys simulate in parallel while two threads
//! racing on the *same* key serialize on the cell and share one result.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use failscope::StreamView;
use failsim::{Simulator, SystemModel};

type Key = (String, u64);
type Cell = Arc<OnceLock<Arc<StreamView>>>;

/// Memoized cache of indexed simulated logs keyed by `(model, seed)`.
pub struct LogStore {
    cells: Mutex<BTreeMap<Key, Cell>>,
    simulations: AtomicU64,
    hits: AtomicU64,
}

impl LogStore {
    /// Creates an empty store.
    pub const fn new() -> Self {
        LogStore {
            cells: Mutex::new(BTreeMap::new()),
            simulations: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The process-wide store shared by all experiments.
    pub fn global() -> &'static LogStore {
        static STORE: LogStore = LogStore::new();
        &STORE
    }

    /// Returns the index of the log for `(model, seed)`, simulating it
    /// on first use and sharing the cached [`Arc`] thereafter.
    ///
    /// The key is the model's `Debug` rendering plus the seed, so two
    /// structurally identical models (e.g. `SystemModel::tsubame3()`
    /// built twice) share one entry while any calibration difference —
    /// an ablation arm, a mitigation variant — gets its own.
    ///
    /// # Panics
    ///
    /// Panics if the model fails validation; every calibrated model in
    /// this workspace is valid by construction.
    pub fn get(&self, model: &SystemModel, seed: u64) -> Arc<StreamView> {
        let key = (format!("{model:?}"), seed);
        let cell = Arc::clone(lock(&self.cells).entry(key).or_default());
        if let Some(log) = cell.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(log);
        }
        Arc::clone(cell.get_or_init(|| {
            self.simulations.fetch_add(1, Ordering::Relaxed);
            Arc::new(StreamView::from(
                Simulator::new(model.clone(), seed)
                    .generate()
                    .expect("calibrated system models always validate"),
            ))
        }))
    }

    /// Number of distinct `(model, seed)` keys ever requested.
    pub fn entries(&self) -> u64 {
        lock(&self.cells).len() as u64
    }

    /// Number of simulations actually run — equals [`Self::entries`]
    /// when the exactly-once invariant holds.
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Number of requests served from cache without simulating.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Drops every cached log and resets the counters (used by the
    /// benchmark harness to time cold runs).
    pub fn clear(&self) {
        lock(&self.cells).clear();
        self.simulations.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
    }
}

/// Locks a store map; a panic while it was held cannot leave the map
/// inconsistent (every critical section is a single insert or read), so
/// a poisoned lock is recovered rather than propagated.
fn lock<K: Ord, V>(map: &Mutex<BTreeMap<K, V>>) -> MutexGuard<'_, BTreeMap<K, V>> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for LogStore {
    fn default() -> Self {
        LogStore::new()
    }
}

impl std::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogStore")
            .field("entries", &self.entries())
            .field("simulations", &self.simulations())
            .field("hits", &self.hits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_simulates_once_and_shares_the_arc() {
        let store = LogStore::new();
        let model = SystemModel::tsubame3();
        let a = store.get(&model, 43);
        let b = store.get(&model, 43);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.simulations(), 1);
        assert_eq!(store.entries(), 1);
        assert_eq!(store.hits(), 1);
        assert_eq!(a.len(), 338);
    }

    #[test]
    fn distinct_models_and_seeds_get_distinct_entries() {
        let store = LogStore::new();
        let t3 = store.get(&SystemModel::tsubame3(), 43);
        let t3b = store.get(&SystemModel::tsubame3(), 44);
        let t2 = store.get(&SystemModel::tsubame2(), 43);
        assert!(!Arc::ptr_eq(&t3, &t3b));
        assert!(!Arc::ptr_eq(&t3, &t2));
        assert_eq!(store.entries(), 3);
        assert_eq!(store.simulations(), 3);
    }

    #[test]
    fn concurrent_fetches_of_one_key_simulate_once() {
        let store = LogStore::new();
        let model = SystemModel::tsubame3();
        let logs = failstats::par_map_ordered(8, 8, |_| store.get(&model, 43));
        for log in &logs {
            assert!(Arc::ptr_eq(&logs[0], log));
        }
        assert_eq!(store.simulations(), 1);
        assert_eq!(store.entries(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let store = LogStore::new();
        let first = store.get(&SystemModel::tsubame3(), 43);
        store.clear();
        assert_eq!(store.entries(), 0);
        assert_eq!(store.simulations(), 0);
        let second = store.get(&SystemModel::tsubame3(), 43);
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(*first, *second, "re-simulation is deterministic");
    }
}
