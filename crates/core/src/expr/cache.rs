//! Source-text → compiled-program memo.
//!
//! Rules are persisted as DSL source and re-parsed on every recovery,
//! checkpoint rebuild, and repeated submission; snapshot rebuilds in the
//! pipeline recompile executors from the same conditions. The cache keys on
//! the normalized source so each distinct expression — and each distinct
//! title pattern — is lexed / parsed / compiled **once per process**, and
//! every later sighting — a WAL replay, a checkpoint rebuild, the same rule
//! text POSTed again, a second rule with the same pattern under a different
//! guard — shares the same `Arc<CompiledExpr>` or the same [`Regex`] (one
//! program, one lazy DFA, one warm state cache).
//!
//! Clones share storage: the parser is cloned into the durable store and
//! the serving tier, and all of them hit one memo.
//!
//! The memo forgets what nobody uses: whenever a table has doubled since
//! its last sweep, entries that only the memo still holds are dropped, so
//! add/delete churn of unique rules costs amortised O(1) per insert and the
//! table stays within twice the live set.

use super::{compile, CompiledExpr};
use rulekit_regex::Regex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache hit/miss counters (monotonic, process-wide for a cache family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprCacheStats {
    /// Expression compilations avoided.
    pub hits: u64,
    /// Expression compilations performed (successful ones enter the cache).
    pub misses: u64,
    /// Distinct cached sources: expressions plus title patterns.
    pub entries: usize,
}

/// Tables smaller than this are never swept.
const MIN_SWEEP_AT: usize = 64;

/// A source → compiled-value table that sweeps unused entries each time it
/// has doubled.
#[derive(Debug)]
struct Memo<V> {
    map: HashMap<String, V>,
    /// Size at which the next sweep runs.
    sweep_at: usize,
}

impl<V> Default for Memo<V> {
    fn default() -> Self {
        Memo { map: HashMap::new(), sweep_at: MIN_SWEEP_AT }
    }
}

impl<V> Memo<V> {
    /// Remembers `value` under `key`, first dropping the entries `in_use`
    /// rejects when the table has doubled since the last sweep.
    fn insert(&mut self, key: &str, value: V, in_use: impl Fn(&V) -> bool) {
        if self.map.len() >= self.sweep_at {
            self.map.retain(|_, v| in_use(v));
            self.sweep_at = (self.map.len() * 2).max(MIN_SWEEP_AT);
        }
        self.map.insert(key.to_string(), value);
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    exprs: Mutex<Memo<Arc<CompiledExpr>>>,
    patterns: Mutex<Memo<Regex>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A cloneable, thread-safe compiled-expression cache. Cloning shares the
/// underlying memo (the clone is an `Arc` copy).
#[derive(Debug, Clone, Default)]
pub struct ExprCache {
    inner: Arc<CacheInner>,
}

impl ExprCache {
    /// An empty cache.
    pub fn new() -> Self {
        ExprCache::default()
    }

    /// Compiles `source`, reusing the cached program when this exact
    /// (trimmed) source was compiled before. Errors are not cached —
    /// malformed text is rare and re-erroring is cheap and re-readable.
    pub fn compile(&self, source: &str) -> Result<Arc<CompiledExpr>, super::ExprError> {
        let key = source.trim();
        let mut memo = self.inner.exprs.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = memo.map.get(key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(compile(key)?);
        memo.insert(key, compiled.clone(), |e| Arc::strong_count(e) > 1);
        Ok(compiled)
    }

    /// Compiles the (already normalized) title pattern case-insensitively,
    /// or hands out a clone of the regex compiled for the same text before:
    /// rules that differ only in guard or target then share one program, one
    /// lazy DFA and one warm state cache.
    pub fn pattern(&self, pattern: &str) -> Result<Regex, rulekit_regex::Error> {
        let mut memo = self.inner.patterns.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = memo.map.get(pattern) {
            return Ok(hit.clone());
        }
        let regex = Regex::case_insensitive(pattern)?;
        memo.insert(pattern, regex.clone(), |r| !r.is_unique());
        Ok(regex)
    }

    /// Current counters.
    pub fn stats(&self) -> ExprCacheStats {
        let exprs = self.inner.exprs.lock().unwrap_or_else(|p| p.into_inner()).map.len();
        let patterns = self.inner.patterns.lock().unwrap_or_else(|p| p.into_inner()).map.len();
        ExprCacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            entries: exprs + patterns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_compile_is_a_pointer_equal_hit() {
        let cache = ExprCache::new();
        let a = cache.compile("price < 20").unwrap();
        let b = cache.compile("  price < 20  ").unwrap(); // trims to the same key
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn clones_share_the_memo() {
        let cache = ExprCache::new();
        let clone = cache.clone();
        let a = cache.compile("vendor == 3").unwrap();
        let b = clone.compile("vendor == 3").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ExprCache::new();
        assert!(cache.compile("price <").is_err());
        assert!(cache.compile("price <").is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn same_pattern_text_is_one_regex() {
        let cache = ExprCache::new();
        let a = cache.pattern("denim.*jeans?").unwrap();
        let b = cache.clone().pattern("denim.*jeans?").unwrap();
        assert!(a.shares_dfa_with(&b));
        assert!(!a.shares_dfa_with(&cache.pattern("jeans?").unwrap()));
        assert!(cache.pattern("(unclosed").is_err());
        // Pattern lookups are not expression compilations.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 2));
    }

    #[test]
    fn churn_of_unique_sources_does_not_grow_the_memo() {
        // The `http-edits` shape: an analyst adds a unique rule, looks at the
        // effect, deletes it — ten thousand times — beside a live rule set.
        let cache = ExprCache::new();
        let live_patterns: Vec<_> =
            (0..100).map(|i| cache.pattern(&format!("live{i}s?")).unwrap()).collect();
        let live_exprs: Vec<_> =
            (0..40).map(|i| cache.compile(&format!("price < {i}")).unwrap()).collect();
        for i in 0..10_000 {
            drop(cache.pattern(&format!("sentinel{i}s?")).unwrap());
            drop(cache.compile(&format!("vendor == {i}")).unwrap());
        }
        let live = live_patterns.len() + live_exprs.len();
        let entries = cache.stats().entries;
        assert!(entries <= 2 * live + 2 * MIN_SWEEP_AT, "{entries} entries for {live} live");

        // Everything still in use survived every sweep, as the same object.
        for (i, re) in live_patterns.iter().enumerate() {
            assert!(cache.pattern(&format!("live{i}s?")).unwrap().shares_dfa_with(re));
        }
        let before = cache.stats();
        for (i, e) in live_exprs.iter().enumerate() {
            assert!(Arc::ptr_eq(&cache.compile(&format!("price < {i}")).unwrap(), e));
        }
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (before.hits + 40, before.misses));
    }
}
