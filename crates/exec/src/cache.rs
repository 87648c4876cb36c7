//! A small, exact LRU cache with hit/miss counters.
//!
//! One type backs every cache of the system: the server engine's verdict,
//! answer, `why`, state-analysis and plan caches. Capacities are small
//! (hundreds to thousands of entries), so eviction does a linear
//! minimum-stamp scan — O(capacity), branch-free, and with no linked-list
//! bookkeeping to get wrong. At these capacities the scan is far cheaper
//! than the completeness check or plan compilation a hit saves.
//!
//! # Plans
//!
//! [`PlanCache`] stores [`CompiledQuery`]s behind [`Arc`] so hits share
//! one allocation. A cached plan stays *correct* under data changes —
//! statistics drive only atom ordering — so data-epoch bumps do not clear
//! the cache; the entry ages out through normal LRU pressure. Keys must
//! capture everything answer-relevant (the server keys on the canonical
//! query form, whose equality implies query equivalence), and the owner
//! must [`clear`](LruCache::clear) on events that remap interned ids,
//! e.g. the server's TCS/vocabulary epoch bumps.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use crate::compiled::CompiledQuery;

/// An exact least-recently-used cache with a fixed capacity and lifetime
/// hit/miss counters.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
    hits: u64,
    misses: u64,
}

/// An LRU cache of shared compiled queries.
pub type PlanCache<K> = LruCache<K, Arc<CompiledQuery>>;

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `cap` entries (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `key`, refreshing its recency and counting a hit or miss.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let found = self.map.get_mut(key).map(|(v, stamp)| {
            *stamp = tick;
            v.clone()
        });
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Inserts `key → value`, evicting the least recently used entry if
    /// the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Iterates the cached entries (unspecified order) without touching
    /// recency or the hit/miss counters — the server's plan-introspection
    /// endpoint walks this to report each plan's operator choices.
    pub fn entries(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (v, _))| (k, v))
    }

    /// The number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime hit count (hits survive [`clear`](LruCache::clear)).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every entry, keeping the hit/miss counters (e.g. on an epoch
    /// bump, where stale keys can never be queried again and would only
    /// occupy capacity).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magik_relalg::{Query, Vocabulary};

    fn trivial_plan(v: &mut Vocabulary, name: &str) -> Arc<CompiledQuery> {
        let q = Query::boolean(v.sym(name), vec![]);
        Arc::new(CompiledQuery::compile(&q, None).unwrap())
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // refresh "a"; "b" is now LRU
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 10);
        c.insert("b", 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(10));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, 1);
        c.insert(2, 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn counts_hits_and_misses_and_evicts_lru() {
        let mut v = Vocabulary::new();
        let mut c = PlanCache::new(2);
        assert!(c.get(&"a").is_none());
        c.insert("a", trivial_plan(&mut v, "qa"));
        c.insert("b", trivial_plan(&mut v, "qb"));
        assert!(c.get(&"a").is_some()); // refresh "a"; "b" is now LRU
        c.insert("c", trivial_plan(&mut v, "qc"));
        assert!(c.get(&"b").is_none());
        assert!(c.get(&"c").is_some());
        assert_eq!(c.len(), 2);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut v = Vocabulary::new();
        let mut c = PlanCache::new(4);
        c.insert("a", trivial_plan(&mut v, "qa"));
        assert!(c.get(&"a").is_some());
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&"a").is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }
}
